(* Crash-point sweep: the robustness gate for transactional attach.

   For every cell — a fault class (or none), or an adversarial guest —
   a probe attach with the crash point parked beyond reach learns Y,
   the number of cooperative yield points the attach path crosses; the
   attach is then re-run Y more times with [abort-at-yield(k)] armed
   for every k in [0, Y). Each point boots a fresh simulated machine,
   so the points are independent and can be interleaved by the
   virtual-time scheduler (the fleet-shaped crash matrix). Every point
   must end in a completed attach or a clean abort: a round-trippable
   error, the guest restored byte for byte (modulo pages it dirtied
   itself) and no descriptor leaked — {!Session.Outcome.grade}. *)

module H = Hostos
module Recipe = Session.Recipe
module Outcome = Session.Outcome

type point = {
  pt_class : string;  (** armed fault class, ["fault-free"] or ["hostile-<class>"] *)
  pt_yield : int;  (** k of [abort-at-yield(k)]; the probe uses [-1] *)
  pt_outcome : Outcome.t;
}

type report = {
  sw_points : point list;
  sw_classes : int;
  sw_oracle_pass : int;
  sw_oracle_fail : int;
  sw_leaked_fds : int;
  sw_unclean : int;
}

(* The attach path renders a fired crash point through this message (a
   stable part of the error taxonomy, round-tripped by Vmsh_error). *)
let crash_point_fired msg =
  let needle = "crash point at yield" in
  let nl = String.length needle and ml = String.length msg in
  let rec scan i = i + nl <= ml && (String.sub msg i nl = needle || scan (i + 1)) in
  scan 0

(* The point's label, projected from its verdict. *)
let label p =
  match p.pt_outcome.Outcome.verdict with
  | Faults.Abort.Survived -> "completed"
  | Faults.Abort.Clean_abort m ->
      if crash_point_fired m then "aborted" else "clean-fail"
  | Faults.Abort.Bug _ -> "unclean"

(* A bug the oracle and the fd count do not explain: an escaped
   exception, an error outside the taxonomy, a broken workload. *)
let unclean p =
  let o = p.pt_outcome in
  Faults.Abort.is_bug o.Outcome.verdict
  && o.Outcome.oracle = [] && o.Outcome.leaked_fds = 0

(* One sweep point: fresh machine, armed cell, one attach. [k = None]
   is the probe (crash point parked at max_int). [?baseline] stands
   the point's machine up as a CoW fork of a baked image instead of a
   cold boot, so the crash matrix also covers forked sessions — the
   rollback oracle then proves restoration through the overlay. *)
let run_point ?log_level ?baseline ~seed ~cell ~k () =
  let boot =
    match baseline with Some img -> Recipe.Fork_of img | None -> Recipe.Cold
  in
  let recipe = Recipe.sweep_cell ~boot ~seed ~k cell in
  let host = Session.host ?log_level recipe in
  {
    pt_class = Recipe.cell_label recipe;
    pt_yield = Recipe.crash_k recipe;
    pt_outcome = Session.run ~host recipe;
  }

(* Run [points] thunks, [vms] at a time, on the virtual-time scheduler
   (vms = 1 degenerates to a plain sequential loop). Every point has
   its own host, so fibers only interleave at the attach path's yield
   points — the same seam the fleet engine exercises. *)
let run_batched ~vms thunks =
  if vms <= 1 then List.map (fun f -> f ()) thunks
  else begin
    let results = Array.make (List.length thunks) None in
    let rec batches i = function
      | [] -> ()
      | rest ->
          let batch = List.filteri (fun j _ -> j < vms) rest in
          let rest' = List.filteri (fun j _ -> j >= vms) rest in
          let sched = Sched.create () in
          List.iteri
            (fun j f ->
              let clock = H.Clock.create () in
              Sched.spawn sched ~name:(Printf.sprintf "pt%d" (i + j)) ~clock
                (fun () -> results.(i + j) <- Some (f ())))
            batch;
          ignore (Sched.run sched);
          batches (i + List.length batch) rest'
    in
    batches 0 thunks;
    List.filter_map Fun.id (Array.to_list results)
  end

let fault_cells =
  Recipe.Fault None :: List.map (fun c -> Recipe.Fault (Some c)) Faults.all

let hostile_cells = List.map (fun h -> Recipe.Adversary h) Hostile.all

(* The matrix: for every cell, a probe learns Y, the number of yield
   points its attach crosses, then the attach is killed at every k in
   [0, Y). Fault cells arm a class at rate 1; hostile cells run a
   seeded adversarial guest stepping at every yield point, racing both
   the attach and its rollback. *)
let run ?(seed = 5) ?(cells = fault_cells) ?(vms = 1) ?(max_yields = 256)
    ?log_level ?baseline () =
  let points =
    List.concat_map
      (fun cell ->
        let probe = run_point ?log_level ?baseline ~seed ~cell ~k:None () in
        let ks =
          List.init (min probe.pt_outcome.Outcome.yields max_yields) Fun.id
        in
        let swept =
          run_batched ~vms
            (List.map
               (fun k () -> run_point ?log_level ?baseline ~seed ~cell ~k:(Some k) ())
               ks)
        in
        probe :: swept)
      cells
  in
  let count f = List.length (List.filter f points) in
  let oracle p = p.pt_outcome.Outcome.oracle in
  {
    sw_points = points;
    sw_classes = List.length cells;
    sw_oracle_pass = count (fun p -> oracle p = []);
    sw_oracle_fail = count (fun p -> oracle p <> []);
    sw_leaked_fds =
      List.fold_left
        (fun a p -> a + max 0 p.pt_outcome.Outcome.leaked_fds)
        0 points;
    sw_unclean = count unclean;
  }

let ok r = r.sw_oracle_fail = 0 && r.sw_leaked_fds = 0 && r.sw_unclean = 0

let record mx r =
  let set name v =
    Observe.Metrics.set_counter (Observe.Metrics.counter mx name) v
  in
  set "sweep.points" (List.length r.sw_points);
  set "sweep.classes" r.sw_classes;
  set "sweep.oracle_pass" r.sw_oracle_pass;
  set "sweep.oracle_fail" r.sw_oracle_fail;
  set "sweep.leaked_fds" r.sw_leaked_fds;
  set "sweep.unclean" r.sw_unclean;
  set "sweep.aborted"
    (List.length (List.filter (fun p -> label p = "aborted") r.sw_points));
  set "sweep.completed"
    (List.length (List.filter (fun p -> label p = "completed") r.sw_points));
  (* per-cell-class coverage, so the CI gates can prove every class
     (fault or hostile) actually swept at least one cell *)
  List.iter
    (fun p ->
      Observe.Metrics.incr
        (Observe.Metrics.counter mx ("sweep.cells." ^ p.pt_class)))
    r.sw_points

let pp_point ppf p =
  let o = p.pt_outcome in
  Format.fprintf ppf "%-13s k=%-3s %-10s oracle=%-5s fds=%+d%s%s" p.pt_class
    (if p.pt_yield < 0 then "Y" else string_of_int p.pt_yield)
    (label p)
    (if o.Outcome.oracle = [] then "pass" else "FAIL")
    o.Outcome.leaked_fds
    (if unclean p then " UNCLEAN: " ^ Faults.Abort.detail o.Outcome.verdict
     else "")
    (match o.Outcome.oracle with [] -> "" | d :: _ -> " (" ^ d ^ ")")

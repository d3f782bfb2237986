(* The hostile-guest engine and the chaos matrix built on it.

   The unit half checks the engine's contract (seeded determinism,
   bounded budget, class naming); the integration half runs single
   matrix cells end-to-end and asserts the hardened attach path's
   guarantee: completed attach or clean round-trippable abort, snapshot
   oracle passing, nothing leaked. The full matrix (every class × every
   crash point) runs in the [hostile-matrix] CI stage, not here. *)

module Sweep = Fleet.Sweep
module Session = Fleet.Session

let test_names () =
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Hostile.name c ^ " round-trips") true
        (Hostile.of_name (Hostile.name c) = Some c))
    Hostile.all;
  Alcotest.(check (option reject)) "unknown name" None (Hostile.of_name "evil")

(* One probe cell per class: no crash point, adversary stepping at
   every yield. Whatever the outcome, the post-conditions must hold. *)
let check_cell ?k h =
  let recipe = Session.Recipe.sweep_cell ~seed:11 ~k (Session.Recipe.Adversary h) in
  let host = Session.host recipe in
  let o = Session.run ~host recipe in
  let point =
    {
      Sweep.pt_class = Session.Recipe.cell_label recipe;
      pt_yield = Session.Recipe.crash_k recipe;
      pt_outcome = o;
    }
  in
  let label = Format.asprintf "%a" Sweep.pp_point point in
  Alcotest.(check (list string)) (label ^ ": oracle") [] o.Session.Outcome.oracle;
  Alcotest.(check int) (label ^ ": fd leak") 0 o.Session.Outcome.leaked_fds;
  (match o.Session.Outcome.verdict with
  | Faults.Abort.Bug m -> Alcotest.failf "%s: %s" label m
  | Faults.Abort.Survived | Faults.Abort.Clean_abort _ -> ());
  (point, Trace.Recorder.events host.Hostos.Host.recorder)

let test_probe_cells () =
  List.iter
    (fun h ->
      let _, events = check_cell h in
      (* the adversary must actually have acted, not silently no-oped *)
      Alcotest.(check bool)
        (Hostile.name h ^ " stepped")
        true
        (List.exists (fun e -> e.Trace.kind = "hostile.step") events))
    Hostile.all

(* The same cell twice must be byte-identical: same outcome, same
   digest, same flight recording (the determinism gate every hostile
   reproducer depends on). *)
let test_cell_determinism () =
  List.iter
    (fun h ->
      let a, ea = check_cell h and b, eb = check_cell h in
      Alcotest.(check string)
        (Hostile.name h ^ " outcome") (Sweep.label a) (Sweep.label b);
      Alcotest.(check string)
        (Hostile.name h ^ " digest") a.Sweep.pt_outcome.Session.Outcome.digest
        b.Sweep.pt_outcome.Session.Outcome.digest;
      Alcotest.(check int)
        (Hostile.name h ^ " events") (List.length ea) (List.length eb))
    Hostile.all

(* A mid-attach crash point under an active adversary: the journal must
   still roll the guest back cleanly. *)
let test_crash_under_attack () =
  List.iter (fun h -> ignore (check_cell ~k:3 h)) Hostile.all

let test_hostile_meta () =
  let point =
    Sweep.run_point ~seed:11 ~cell:(Session.Recipe.Adversary Hostile.Toctou_scan)
      ~k:None ()
  in
  Alcotest.(check bool)
    "cell labelled hostile" true
    (point.Sweep.pt_class = "hostile-toctou-scan")

let suite =
  [
    ( "hostile",
      [
        Alcotest.test_case "class names round-trip" `Quick test_names;
        Alcotest.test_case "probe cells clean" `Slow test_probe_cells;
        Alcotest.test_case "cells are deterministic" `Slow test_cell_determinism;
        Alcotest.test_case "crash point under attack" `Slow test_crash_under_attack;
        Alcotest.test_case "hostile cell labelling" `Quick test_hostile_meta;
      ] );
  ]

(* Shared machinery of the two-clock benchmark: run options, the
   percentile rule, the span tracer, and the metric report.

   Two clocks are in play. The host clock is the simulator's own cost:
   wall time from [Unix.gettimeofday] and allocation from
   [Gc.minor_words]. The virtual clock is the modelled cost, read from a
   simulated host's [Hostos.Clock] (nanoseconds plus event counters). *)

module H = Hostos
module Clock = H.Clock

let wall () = Unix.gettimeofday ()

type opts = {
  seed : int;
  seconds : float;  (** length of the measured window, host seconds *)
  trace : bool;  (** traced run: per-layer metrics instead of end-to-end *)
}

(* ---- percentiles ------------------------------------------------------ *)

exception Too_few_samples of string

(* Nearest-rank percentile [p] (an integer percent) of [xs]. Defined
   only when at least ten samples lie beyond it, so a p90 needs 100
   samples and a p50 needs 20; with fewer the run fails rather than
   print a percentile the sample cannot support. *)
let percentile ~name p xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  let idx = (((p * n) + 99) / 100) - 1 in
  if idx < 0 || n - idx - 1 < 10 then
    raise
      (Too_few_samples
         (Printf.sprintf "%s: p%d needs 10 samples beyond it, have %d in all"
            name p n));
  a.(idx)

let median ~name xs = percentile ~name 50 xs

let mean xs =
  match xs with
  | [] -> Float.nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

(* ---- closed loops ----------------------------------------------------- *)

(* Words the program has allocated so far, in both heaps. *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* The process's peak major heap so far. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

type loop = {
  iters : int;
  window_s : float;  (** wall seconds of all iterations *)
  sample_words : float;  (** words allocated by the first [min_iters] *)
  sample_peak_mb : float;  (** the heap's peak when they were done *)
}

(* Run [body i] for i = 0, 1, ... until the window of [opts.seconds] has
   passed and at least [min_iters] iterations are done. The first
   [min_iters] iterations are the same work on every host, so metrics
   taken from them alone (the virtual ones, allocation, and the peak
   heap, since the GC is paced by allocation alone) repeat exactly
   across runs of one seed; the blk-mixed heap keeps growing slowly
   after them, so its peak at the end of the window would follow the
   machine's speed. *)
let closed_loop opts ~min_iters body =
  let t0 = wall () and a0 = allocated_words () in
  let sample_words = ref Float.nan and sample_peak_mb = ref Float.nan in
  let rec go i =
    if i = min_iters then begin
      sample_words := allocated_words () -. a0;
      sample_peak_mb := peak_heap_mb ()
    end;
    if i >= min_iters && wall () -. t0 >= opts.seconds then i
    else begin
      body i;
      go (i + 1)
    end
  in
  let iters = go 0 in
  {
    iters;
    window_s = wall () -. t0;
    sample_words = !sample_words;
    sample_peak_mb = !sample_peak_mb;
  }

(* Set up [k] times and keep the last result: the median of the [k]
   wall times is the run's [setup_s]. A compaction (not timed) after
   each discarded set-up keeps its garbage out of the peak heap and
   the measured window's GC pacing: with full collections alone, five
   blk-mixed set-ups left a heap 45 % larger than three did, and the
   loop ran 15 % slower in it. *)
let timed_setup ~k f =
  let timed () =
    let t0 = wall () in
    let v = f () in
    (wall () -. t0, v)
  in
  let times =
    List.init (k - 1) (fun _ ->
        let dt, _ = timed () in
        Gc.compact ();
        dt)
  in
  let dt, v = timed () in
  let a = Array.of_list (dt :: times) in
  Array.sort Float.compare a;
  (a.(k / 2), v)

(* Modelled events a clock counted: every counter except byte volumes. *)
let events (c : Clock.counters) =
  List.fold_left
    (fun acc (name, v) ->
      if String.length name >= 5 && String.sub name 0 5 = "bytes" then acc
      else acc + v)
    0 (Clock.to_fields c)

(* ---- span tracer ------------------------------------------------------ *)

module Tracer = struct
  type span = {
    id : int;
    parent : int;  (** [-1] at the root *)
    layer : string;
    session : int;
    mutable w0 : float;
    mutable w1 : float;
    mutable v0 : float;  (** [nan] when the call has no virtual clock *)
    mutable v1 : float;
    mutable mw : float;  (** minor words allocated inside the span *)
    mutable dc : (string * int) list;  (** Clock counter deltas *)
  }

  type t = {
    enabled : bool;
    origin : float;  (** wall time the tracer was created *)
    mutable spans : span list;  (** newest first *)
    mutable stack : span list;
    mutable next_id : int;
    mutable session : int;
    mutable overhead_s : float;  (** host seconds spent in bookkeeping *)
  }

  let create ~enabled =
    {
      enabled;
      origin = wall ();
      spans = [];
      stack = [];
      next_id = 0;
      session = -1;
      overhead_s = 0.;
    }

  let set_session t id = t.session <- id

  (* Counter deltas, keeping only the counters that moved. *)
  let delta c0 c1 =
    List.filter
      (fun (_, d) -> d <> 0)
      (List.map2 (fun (k, a) (_, b) -> (k, b - a)) (Clock.to_fields c0)
         (Clock.to_fields c1))

  (* Time [f ()] as one call into [layer]. Untraced runs call [f]
     directly. The span's interval excludes the tracer's own work,
     which is summed into [overhead_s]. *)
  let span t ?clock layer f =
    if not t.enabled then f ()
    else begin
      let b0 = wall () in
      let sp =
        {
          id = t.next_id;
          parent = (match t.stack with s :: _ -> s.id | [] -> -1);
          layer;
          session = t.session;
          w0 = 0.;
          w1 = 0.;
          v0 = Float.nan;
          v1 = Float.nan;
          mw = 0.;
          dc = [];
        }
      in
      t.next_id <- t.next_id + 1;
      t.stack <- sp :: t.stack;
      let c0 = Option.map Clock.snapshot clock in
      Option.iter (fun c -> sp.v0 <- Clock.now_ns c) clock;
      let mw0 = Gc.minor_words () in
      sp.w0 <- wall ();
      t.overhead_s <- t.overhead_s +. (sp.w0 -. b0);
      let finish () =
        sp.w1 <- wall ();
        sp.mw <- Gc.minor_words () -. mw0;
        (match (clock, c0) with
        | Some c, Some c0 ->
            sp.v1 <- Clock.now_ns c;
            sp.dc <- delta c0 (Clock.snapshot c)
        | _ -> ());
        t.stack <- List.tl t.stack;
        t.spans <- sp :: t.spans;
        t.overhead_s <- t.overhead_s +. (wall () -. sp.w1)
      in
      Fun.protect ~finally:finish f
    end

  let dur sp = sp.w1 -. sp.w0
  let vdur sp = sp.v1 -. sp.v0

  (* Self time: the span's interval minus what its children cover, on
     the host clock and (when both ends have one) the virtual clock. *)
  let self_times t =
    let child_w = Hashtbl.create 64 and child_v = Hashtbl.create 64 in
    List.iter
      (fun sp ->
        if sp.parent >= 0 then begin
          let add tbl x =
            Hashtbl.replace tbl sp.parent
              (x +. Option.value ~default:0. (Hashtbl.find_opt tbl sp.parent))
          in
          add child_w (dur sp);
          if Float.is_finite (vdur sp) then add child_v (vdur sp)
        end)
      t.spans;
    List.rev_map
      (fun sp ->
        let sub tbl = Option.value ~default:0. (Hashtbl.find_opt tbl sp.id) in
        (sp, dur sp -. sub child_w, vdur sp -. sub child_v))
      t.spans

  let counter sp name = Option.value ~default:0 (List.assoc_opt name sp.dc)

  (* Spans are kept in memory during the run and written once, here, as
     one JSON object per line. *)
  let write t path =
    let oc = open_out path in
    List.iter
      (fun sp ->
        Printf.fprintf oc
          "{\"id\": %d, \"parent\": %d, \"layer\": %S, \"session\": %d, \
           \"wall_s\": [%.6f, %.6f], \"virt_ns\": [%s, %s], \"minor_words\": \
           %.0f, \"counters\": {%s}}\n"
          sp.id sp.parent sp.layer sp.session (sp.w0 -. t.origin)
          (sp.w1 -. t.origin)
          (if Float.is_finite sp.v0 then Printf.sprintf "%.17g" sp.v0
           else "null")
          (if Float.is_finite sp.v1 then Printf.sprintf "%.17g" sp.v1
           else "null")
          sp.mw
          (String.concat ", "
             (List.map (fun (k, v) -> Printf.sprintf "%S: %d" k v) sp.dc)))
      (List.rev t.spans);
    close_out oc
end

(* ---- report ----------------------------------------------------------- *)

type clock_kind = Host_clock | Virtual_clock

type report = {
  mutable metrics : (string * float * string * clock_kind) list;  (** newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** first few failure messages *)
}

let report () = { metrics = []; attempted = 0; failed = 0; failures = [] }

let metric r clock name unit value =
  r.metrics <- (name, value, unit, clock) :: r.metrics

let host r name unit v = metric r Host_clock name unit v
let virt r name unit v = metric r Virtual_clock name unit v

(* One checked operation: [ok = false] counts it as failed. *)
let check r ok msg =
  r.attempted <- r.attempted + 1;
  if not ok then begin
    r.failed <- r.failed + 1;
    if List.length r.failures < 5 then r.failures <- msg () :: r.failures
  end

(* Every metric as a line with its unit and clock, then the result
   object as the last line. Values print with all 17 significant
   digits, so a virtual metric can be compared bit for bit. *)
let print r =
  let metrics = List.rev r.metrics in
  List.iter (fun m -> prerr_endline ("failure: " ^ m)) (List.rev r.failures);
  List.iter
    (fun (name, v, unit, clock) ->
      Printf.printf "metric %-44s %24.17g %-8s %s\n" name v unit
        (match clock with Host_clock -> "host" | Virtual_clock -> "virtual"))
    metrics;
  let bad =
    List.filter (fun (_, v, _, _) -> not (Float.is_finite v)) metrics
  in
  List.iter
    (fun (name, _, _, _) -> prerr_endline ("failure: non-finite " ^ name))
    bad;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.attempted > 0 && r.failed = 0 && bad = [])
    (max 1 r.attempted) r.failed
    (String.concat ", "
       (List.filter_map
          (fun (name, v, unit, _) ->
            if Float.is_finite v then
              Some
                (Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v
                   unit)
            else None)
          metrics))

(* ---- per-layer figures from a traced run ------------------------------ *)

module Layers = struct
  type t = (Tracer.span * float * float) list
  (** every span with its host self seconds and virtual self ns *)

  let of_tracer = Tracer.self_times

  let select ?(only = fun _ -> true) (t : t) layer =
    List.filter (fun ((sp : Tracer.span), _, _) -> sp.layer = layer && only sp) t

  (* Median self time of [layer] in ms (host) or us (virtual). *)
  let wall_ms ?only t layer =
    median ~name:layer
      (List.map (fun (_, w, _) -> w *. 1e3) (select ?only t layer))

  (* Mean virtual self time of [layer] in us. Virtual times are model
     outputs that repeat exactly for equal inputs, so a median lands on
     one input's value; the mean follows the seeded input mix. *)
  let virt_us_mean ?only t layer =
    mean (List.map (fun (_, _, v) -> v /. 1e3) (select ?only t layer))

  let minor_mwords t layer =
    median ~name:layer
      (List.map (fun ((sp : Tracer.span), _, _) -> sp.mw /. 1e6) (select t layer))

  (* Mean of one Clock counter's delta over [layer]'s spans. *)
  let counter_mean ?only t layer name =
    mean
      (List.map
         (fun (sp, _, _) -> float_of_int (Tracer.counter sp name))
         (select ?only t layer))
end

(* ---- the metrics every workload reports ------------------------------ *)

(* Each workload counts its own unit of work as an op: a session in
   attach-matrix, a clone in fork-fleet, a stream entry in blk-mixed, a
   served job in serve-open. The end-to-end and per-layer metrics named
   in BENCHMARK.json are the ones below, defined over ops, so every
   workload prints every one of them from its own operations; the
   workload-specific figures print beside them as information. *)

(* End-to-end, host clock: set-up time, throughput over the measured
   window, and - over a seed-fixed prefix of the work, so that they
   repeat exactly for a seed - allocation per op and this process's
   peak heap. *)
let end_to_end r ~setup_s ~ops ~window_s ~alloc_words ~alloc_ops ~peak_mb =
  host r "setup_s" "s" setup_s;
  host r "ops_per_s" "1/s" (float_of_int ops /. window_s);
  host r "alloc_kw_per_op" "kwords" (alloc_words /. 1e3 /. float_of_int alloc_ops);
  host r "peak_heap_mb" "MiB" peak_mb

(* Per-layer, from a traced run's "session" spans (the unit a workload
   groups its calls in: a session, a batch, a chunk of requests, a
   rung). The simulator layer: host seconds per modelled second
   ([virt_ns] is the virtual time the ops modelled) and minor words per
   op. The tracer layer: its own bookkeeping as a share of the run, and
   the least share of a session's wall that the named layers' self
   times account for. *)
let per_layer r (tr : Tracer.t) (layers : Layers.t) ~ops ~virt_ns ~run_wall =
  let sessions = Layers.select layers "session" in
  let wall = List.fold_left (fun a (sp, _, _) -> a +. Tracer.dur sp) 0. sessions in
  let mw = List.fold_left (fun a ((sp : Tracer.span), _, _) -> a +. sp.mw) 0. sessions in
  let ops = float_of_int ops in
  host r "trace.op_host_ms_mean" "ms" (wall *. 1e3 /. ops);
  host r "gc.minor_kw_per_op" "kwords" (mw /. 1e3 /. ops);
  host r "sim.host_s_per_virt_s" "s/s" (wall /. (virt_ns /. 1e9));
  host r "trace.overhead_pct" "%" (100. *. tr.Tracer.overhead_s /. run_wall);
  host r "trace.coverage_pct_min" "%"
    (List.fold_left
       (fun acc (sp, self, _) ->
         Float.min acc (100. *. (1. -. (self /. Tracer.dur sp))))
       100. sessions)

(* ---- guest environment ------------------------------------------------ *)

(* A guest root disk of [blocks] 4 KiB blocks whose /etc/hostname is
   [name]: the console check expects the guest to answer with it. *)
let make_disk h ~blocks ~name =
  let disk = Blockdev.Backend.create ~clock:h.H.Host.clock ~blocks () in
  let fs =
    match Blockdev.Simplefs.mkfs (Blockdev.Backend.dev disk) () with
    | Ok fs -> fs
    | Error e -> failwith ("mkfs: " ^ H.Errno.show e)
  in
  ignore (Blockdev.Simplefs.mkdir_p fs "/dev");
  ignore (Blockdev.Simplefs.mkdir_p fs "/etc");
  ignore
    (Blockdev.Simplefs.write_file fs "/etc/hostname"
       (Bytes.of_string (name ^ "\n")));
  Blockdev.Simplefs.sync fs;
  disk

(* The overlay's tools image (the vmsh-blk backing store), with
   [extra_blocks] of free space after the packed files. *)
let tools_image ?(extra_blocks = 0) h =
  match
    Blockdev.Image.pack ~clock:h.H.Host.clock ~extra_blocks
      [ Blockdev.Image.file "/bin/busybox" 800_000 ]
  with
  | Ok (backend, _) -> backend
  | Error e -> failwith ("image pack: " ^ H.Errno.show e)

(* Does console output [out] answer "hostname" with [name]? *)
let answers_hostname ~name out =
  let want = name ^ "\n" in
  String.length out >= String.length want
  && String.sub out 0 (String.length want) = want

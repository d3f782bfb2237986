(* serve-open: an open loop of Service.Dispatch.run over a fixed ladder
   of Poisson arrival rates, with the default job mix and eight
   workers. Tenants have no token-bucket cap, so a refusal can only
   come from a full queue, which is real overload. A job's latency runs
   from its due (arrival) time to its completion; a refused or failed
   job counts as missing the latency limit. The arrival generator is
   simulated on the virtual clock, so it is never late. This is the
   only workload that exercises admission, dispatch queueing and the
   scheduler. *)

open Common
module SD = Service.Dispatch

(* The knee lies between 1000 and 1300 jobs/s for nearly every seed, so
   those two rungs carry 200 jobs each: a 100-job stream ends before
   its backlog shows, which swings the knee by a fifth between seeds.
   800 jobs/s (100 jobs, what a p90 needs) catches a seed whose knee is
   lower. Then a burst far past the knee, of 200 jobs: long enough to
   overflow t0's 64-deep queue (t0 draws half the jobs but holds a sixth
   of the service weight), so it measures refusals as well as queueing. *)
let ladder = [ (800., 100); (1000., 200); (1300., 200); (6400., 200) ]

(* The rung whose latencies are reported: the burst, where nearly every
   admitted job queues, so p50 and p90 measure how fast the service
   drains a backlog. Nearer the queueing onset a stream's p90 swings by
   a factor of two from seed to seed. *)
let report_rate = 6400.

(* The knee's limit on a rung's p90 and drain time: about three
   unloaded job times. *)
let limit_ms = 25.

let config ~seed ~rate ~jobs =
  {
    SD.default_config with
    SD.jobs;
    rate;
    seed;
    ram_mb = 16;
    tenants =
      List.map
        (fun t -> { t with Service.Admission.tc_rate = infinity })
        SD.default_tenants;
  }

type rung = {
  rate : float;
  jobs : int;
  latency_ms : float list;  (** per job; [infinity] when refused or failed *)
  wait_ms : float list;  (** due time to dispatch; [infinity] when refused *)
  run_ms : float list;  (** dispatch to completion, completed jobs only *)
  refused : int;
  drain_ms : float;  (** last arrival to last completion *)
  wall_s : float;
}

let p90 rg = percentile ~name:(Printf.sprintf "latency r%.0f" rg.rate) 90 rg.latency_ms

(* A rung meets the limit when its p90 does and its backlog drains
   within the limit of the last arrival. The larger of the two is the
   rung's tail, which the knee interpolates, so the knee moves smoothly
   whichever of them binds. *)
let tail rg = Float.max (p90 rg) rg.drain_ms
let passes rg = tail rg <= limit_ms

let run_rung tr r ~seed ~index (rate, jobs) =
  Tracer.set_session tr index;
  let t0 = wall () in
  let rep =
    Tracer.span tr "session" (fun () ->
        Tracer.span tr "service.dispatch_run" (fun () ->
            SD.run (config ~seed ~rate ~jobs)))
  in
  let wall_s = wall () -. t0 in
  let recs = Array.to_list rep.SD.rp_records in
  List.iter
    (fun jr ->
      check r
        (match jr.SD.jr_status with
        | Service.Job.Completed | Service.Job.Shed _ -> true
        | Service.Job.Failed _ | Service.Job.Expired _ -> false)
        (fun () ->
          Printf.sprintf "r%.0f job %d: %s" rate jr.SD.jr_job.Service.Job.id
            (match jr.SD.jr_status with
            | Service.Job.Failed m -> m
            | _ -> "expired")))
    recs;
  check r (rep.SD.rp_leaked_workers = 0) (fun () ->
      Printf.sprintf "r%.0f leaked %d workers" rate rep.SD.rp_leaked_workers);
  let completed jr = jr.SD.jr_status = Service.Job.Completed in
  let last_submit =
    List.fold_left (fun a jr -> Float.max a jr.SD.jr_submit_ns) 0. recs
  in
  {
    rate;
    jobs;
    latency_ms =
      List.map
        (fun jr ->
          if completed jr then (jr.SD.jr_end_ns -. jr.SD.jr_submit_ns) /. 1e6
          else infinity)
        recs;
    wait_ms =
      List.map
        (fun jr ->
          if Float.is_finite jr.SD.jr_start_ns then
            (jr.SD.jr_start_ns -. jr.SD.jr_submit_ns) /. 1e6
          else infinity)
        recs;
    run_ms =
      List.filter_map
        (fun jr ->
          if completed jr then Some ((jr.SD.jr_end_ns -. jr.SD.jr_start_ns) /. 1e6)
          else None)
        recs;
    refused =
      List.length
        (List.filter
           (fun jr ->
             match jr.SD.jr_status with Service.Job.Shed _ -> true | _ -> false)
           recs);
    drain_ms = Float.max 0. ((rep.SD.rp_makespan_ns -. last_submit) /. 1e6);
    wall_s;
  }

(* The knee: the highest rung that meets the limit, refined by
   interpolating the tail linearly towards the next rung up. With no
   passing rung it is extrapolated down from the first; when the next
   rung's tail is infinite (more than a tenth refused) it is the passing
   rung's rate. *)
let knee rungs =
  match List.rev (List.filter passes rungs) with
  | [] ->
      let first = List.hd rungs in
      first.rate *. limit_ms /. tail first
  | top :: _ -> (
      match List.find_opt (fun rg -> rg.rate > top.rate) rungs with
      | Some next when Float.is_finite (tail next) ->
          top.rate
          +. (next.rate -. top.rate) *. (limit_ms -. tail top)
             /. (tail next -. tail top)
      | _ -> top.rate)

let run opts r =
  let tr = Tracer.create ~enabled:opts.trace in
  (* set-up: a short warm-up stream, the same for every seed, so
     first-use costs are paid before the ladder *)
  let setup_s, () =
    timed_setup ~k:5 (fun () ->
        ignore (SD.run (config ~seed:1 ~rate:(fst (List.hd ladder)) ~jobs:8)))
  in
  (* every rung replays one seeded stream (the same draws, gaps scaled
     by the rate), so the rungs differ only in load and the knee moves
     smoothly with the seed *)
  let a0 = allocated_words () in
  let rungs = List.mapi (fun index -> run_rung tr r ~seed:opts.seed ~index) ladder in
  let ladder_words = allocated_words () -. a0 in
  let ladder_s = List.fold_left (fun a rg -> a +. rg.wall_s) 0. rungs in
  let at_rate = List.find (fun rg -> rg.rate = report_rate) rungs in
  (* host costs are per served job: a refusal costs next to nothing, and
     the share refused moves with the seed *)
  let served = List.fold_left (fun a rg -> a + rg.jobs - rg.refused) 0 rungs in
  if not opts.trace then begin
    end_to_end r ~setup_s ~ops:served ~window_s:ladder_s
      ~alloc_words:ladder_words ~alloc_ops:served
      ~peak_mb:(peak_heap_mb ());
    (* over the admitted jobs; the refusals are counted on their own *)
    let admitted = List.filter Float.is_finite at_rate.latency_ms in
    virt r "serve_virt_ms_p50" "ms" (percentile ~name:"latency" 50 admitted);
    virt r "serve_virt_ms_p90" "ms" (percentile ~name:"latency" 90 admitted);
    virt r "serve_knee_rps" "1/s" (knee rungs)
  end
  else begin
    let layers = Layers.of_tracer tr in
    List.iter
      (fun rg ->
        let tag = Printf.sprintf ".r%.0f" rg.rate in
        virt r ("service.wait_ms_p90" ^ tag) "ms"
          (percentile ~name:("wait" ^ tag) 90
             (List.filter Float.is_finite rg.wait_ms));
        virt r ("service.run_ms_p50" ^ tag) "ms" (median ~name:("run" ^ tag) rg.run_ms))
      rungs;
    (* only the burst can fill a queue; below it the ratio is 0 *)
    virt r "service.refused_ratio.r6400" "ratio"
      (float_of_int at_rate.refused /. float_of_int at_rate.jobs);
    virt r "service.knee_rung_rps" "1/s"
      (List.fold_left (fun a rg -> if passes rg then Float.max a rg.rate else a) 0. rungs);
    host r "service.wall_ms_per_job" "ms"
      (List.fold_left
         (fun a (_, w, _) -> a +. w)
         0.
         (Layers.select layers "service.dispatch_run")
      *. 1e3
      /. float_of_int served);
    (* the modelled time is the jobs' own: dispatch to completion *)
    let run_ns =
      List.fold_left
        (fun a rg -> List.fold_left (fun a ms -> a +. (ms *. 1e6)) a rg.run_ms)
        0. rungs
    in
    per_layer r tr layers ~ops:served ~virt_ns:run_ns ~run_wall:ladder_s
  end;
  tr

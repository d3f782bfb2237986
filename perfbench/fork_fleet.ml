(* fork-fleet: a closed loop over linked clones. Set-up bakes one
   Fleet.Baseline image; the loop then runs Fleet.run with Fork_of in
   fixed batches of [batch] clones sharing one symbol cache, and stands
   up one more clone with a bare Baseline.fork per batch to time the
   fork on its own. Each clone runs the same attach, console and detach
   path as attach-matrix, but is stood up by Baseline.fork with a warm
   cache, so a fork or overlay change shows here and not there. *)

open Common
module Profile = Hypervisor.Profile

let batch = 4

(* 20 batches: what a per-batch median needs (ten samples beyond it). *)
let min_batches = 20

(* Words live in the major heap after a full collection. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* The per-clone figures a traced run keeps once the batch's report
   (and with it every clone's host) is dropped. The clones' virtual
   times are left out: every clone replays the same frozen state, so
   they are constants of the baked image (83.7 us per fork) and read
   the same in every run; the spans file still records them. *)
type clone = { resident_bytes : int; clone_events : int; total_ns : float }

let clone_of (s : Fleet.session_report) =
  {
    resident_bytes =
      Observe.Metrics.counter_value
        (Observe.Metrics.counter
           (Observe.metrics s.Fleet.s_host.H.Host.observe)
           "overlay.resident_bytes");
    clone_events = Common.events (Clock.counters s.Fleet.s_host.H.Host.clock);
    total_ns = s.Fleet.s_total_ns;
  }

let run opts r =
  let tr = Tracer.create ~enabled:opts.trace in
  let setup_s, img =
    timed_setup ~k:5 (fun () -> Fleet.Baseline.bake ~seed:opts.seed ())
  in
  let fleet_walls = ref [] and clones = ref [] and heap = ref []
  and yields = ref 0 and hits = ref 0 and misses = ref 0
  and probe_ns = ref 0. in
  let loop =
    closed_loop opts ~min_iters:min_batches (fun b ->
        let live0 = if opts.trace then live_words () else 0 in
        Tracer.set_session tr b;
        let result =
          Tracer.span tr "session" (fun () ->
              let probe = H.Host.create ~seed:((opts.seed * 10_007) + b) () in
              (match
                 Tracer.span tr ~clock:probe.H.Host.clock "baseline.fork"
                   (fun () ->
                     Fleet.Baseline.fork img ~host:probe ~profile:Profile.qemu
                       ~name:(Printf.sprintf "probe%d" b))
               with
              | Ok _ ->
                  probe_ns := !probe_ns +. Clock.now_ns probe.H.Host.clock;
                  check r true (fun () -> "")
              | Error e ->
                  check r false (fun () ->
                      "fork probe: " ^ Vmsh.Vmsh_error.to_string e));
              let cfg =
                Fleet.Config.(
                  make ~vms:batch ()
                  |> with_seed ((opts.seed * 10_007) + b)
                  |> with_boot_source (Fork_of img))
              in
              let t0 = wall () in
              let rep = Tracer.span tr "fleet.run" (fun () -> Fleet.run cfg) in
              (wall () -. t0, rep))
        in
        match result with
        | _, Error e ->
            check r false (fun () -> "fleet: " ^ Vmsh.Vmsh_error.to_string e)
        | dt, Ok rep ->
            fleet_walls := dt :: !fleet_walls;
            List.iter
              (fun (s : Fleet.session_report) ->
                (* Fleet.run checks each clone's console answer against
                   its own per-clone hostname; a clean detach leaves a
                   digest *)
                check r
                  (Result.is_ok s.Fleet.s_result && s.Fleet.s_digest <> "")
                  (fun () ->
                    Printf.sprintf "batch %d %s: %s" b s.Fleet.s_name
                      (match s.Fleet.s_result with
                      | Error m -> m
                      | Ok () -> "no digest")))
              rep.Fleet.r_sessions;
            if opts.trace then begin
              heap :=
                float_of_int (live_words () - live0)
                *. float_of_int (Sys.word_size / 8)
                /. 1048576. /. float_of_int batch
                :: !heap;
              clones := List.map clone_of rep.Fleet.r_sessions @ !clones;
              yields := !yields + rep.Fleet.r_yields;
              hits := !hits + rep.Fleet.r_cache_hits;
              misses := !misses + rep.Fleet.r_cache_misses
            end)
  in
  let fleet_total = List.fold_left ( +. ) 0. !fleet_walls in
  if not opts.trace then begin
    end_to_end r ~setup_s
      ~ops:(batch * List.length !fleet_walls)
      ~window_s:fleet_total ~alloc_words:loop.sample_words
      ~alloc_ops:(batch * min_batches) ~peak_mb:loop.sample_peak_mb;
    host r "session_ms_p50" "ms"
      (median ~name:"session_ms"
         (List.map (fun w -> w *. 1e3 /. float_of_int batch) !fleet_walls))
  end
  else begin
    let layers = Layers.of_tracer tr in
    let clones = !clones in
    host r "baseline.bake_s" "s" setup_s;
    host r "baseline.fork_ms" "ms" (Layers.wall_ms layers "baseline.fork");
    host r "fleet.run_ms" "ms" (Layers.wall_ms layers "fleet.run");
    host r "fleet.heap_mb_per_clone" "MiB" (median ~name:"heap" !heap);
    virt r "overlay.resident_kib_per_clone" "KiB"
      (median ~name:"resident"
         (List.map (fun c -> float_of_int c.resident_bytes /. 1024.) clones));
    virt r "sched.yields_per_session" "count"
      (float_of_int !yields /. float_of_int (List.length clones));
    virt r "symcache.hit_ratio" "ratio"
      (float_of_int !hits /. float_of_int (max 1 (!hits + !misses)));
    host r "sim.host_ns_per_event" "ns"
      (fleet_total *. 1e9
      /. float_of_int
           (max 1 (List.fold_left (fun a c -> a + c.clone_events) 0 clones)));
    per_layer r tr layers ~ops:(List.length clones)
      ~virt_ns:(List.fold_left (fun a c -> a +. c.total_ns) !probe_ns clones)
      ~run_wall:loop.window_s
  end;
  tr

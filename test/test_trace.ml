(* lib/trace + lib/replay: the flight recorder's binary codec, the
   bounded ring, dump-on-failure gating, and the replay-diff oracle —
   identically-seeded runs must produce byte-identical .vmshtrace
   files, and every recorded scenario must replay clean. *)

let check = Alcotest.check
let cbool = Alcotest.bool
let cint = Alcotest.int
let cstr = Alcotest.string

module Recipe = Fleet.Session.Recipe

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let tmp_trace () = Filename.temp_file "vmsh-test" ".vmshtrace"

(* --- binary codec: encode/decode roundtrip --- *)

let sample_events =
  [
    {
      Trace.kind = "kvm.exit.mmio";
      ts = 10.0;
      session = 0;
      args = [ ("addr", Trace.I 0xfe003000); ("dir", Trace.S "write") ];
    };
    { Trace.kind = "kvm.kick"; ts = 12.5; session = 1; args = [] };
    {
      Trace.kind = "inject.syscall";
      ts = 99.0;
      session = 0;
      args = [ ("nr", Trace.I 2); ("ret", Trace.I (-11)) ];
    };
  ]

let test_codec_roundtrip () =
  let meta = [ ("scenario", "attach"); ("seed", "41") ] in
  let bytes = Trace.encode ~meta ~dropped:3 sample_events in
  check cbool "magic header" true
    (String.length bytes > 8 && String.sub bytes 0 8 = "VMSHTRC1");
  match Trace.decode bytes with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok f ->
      check cint "dropped survives" 3 f.Trace.f_dropped;
      check cbool "meta survives in order" true (f.Trace.f_meta = meta);
      check cbool "events survive exactly" true
        (f.Trace.f_events = sample_events);
      (* the encoding itself must be deterministic *)
      check cstr "re-encode is byte-identical" bytes
        (Trace.encode ~meta ~dropped:3 sample_events)

let test_codec_rejects_garbage () =
  (match Trace.decode "not a trace" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoded garbage");
  match Trace.decode "VMSHTRC1\x01\x02" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoded a truncated file"

(* --- recorder: bounded ring semantics --- *)

let test_ring_bounds () =
  let r = Trace.Recorder.create ~capacity:4 ~now:(fun () -> 7.0) () in
  for i = 1 to 10 do
    Trace.Recorder.record r ~kind:"tick" ~args:[ ("i", Trace.I i) ] ()
  done;
  check cint "ring keeps only capacity" 4
    (List.length (Trace.Recorder.events r));
  check cint "dropped counts overwrites" 6 (Trace.Recorder.dropped r);
  check cint "total counts everything" 10 (Trace.Recorder.total r);
  (* survivors are the newest events, oldest first *)
  let firsts =
    List.map
      (fun e ->
        match e.Trace.args with [ ("i", Trace.I i) ] -> i | _ -> -1)
      (Trace.Recorder.events r)
  in
  check cbool "ring keeps the tail in order" true (firsts = [ 7; 8; 9; 10 ]);
  Trace.Recorder.set_enabled r false;
  Trace.Recorder.record r ~kind:"tick" ();
  check cint "disabled recorder drops nothing new" 10 (Trace.Recorder.total r)

(* --- diff: identical streams are [], divergence is reported --- *)

let test_diff () =
  check cint "identical streams diff empty" 0
    (List.length (Trace.diff sample_events sample_events));
  let mutated =
    match sample_events with
    | e :: rest -> { e with Trace.ts = 11.0 } :: rest
    | [] -> []
  in
  check cbool "timestamp divergence reported" true
    (Trace.diff sample_events mutated <> []);
  check cbool "length divergence reported" true
    (Trace.diff sample_events (List.tl sample_events) <> [])

(* --- dump-on-failure: gated on VMSH_TRACE_DIR --- *)

let test_dump_on_failure () =
  let r = Trace.Recorder.create ~now:(fun () -> 1.0) () in
  Trace.Recorder.set_meta r "seed" "9";
  Trace.Recorder.record r ~kind:"kvm.kick" ();
  Unix.putenv "VMSH_TRACE_DIR" "";
  check cbool "unset dir means no artifact" true
    (Trace.dump_on_failure r ~name:"nope" () = None);
  let dir = Filename.temp_file "vmsh-dump" "" in
  Sys.remove dir;
  Unix.putenv "VMSH_TRACE_DIR" dir;
  let path =
    match
      Trace.dump_on_failure r ~name:"boom"
        ~extra_meta:[ ("error", "expected") ] ()
    with
    | Some p -> p
    | None -> Alcotest.fail "no artifact written"
  in
  Unix.putenv "VMSH_TRACE_DIR" "";
  check cstr "artifact lands under the dir" dir (Filename.dirname path);
  match Trace.load path with
  | Error e -> Alcotest.failf "artifact unreadable: %s" e
  | Ok f ->
      check cstr "recorder meta kept" "9" (List.assoc "seed" f.Trace.f_meta);
      check cstr "extra meta appended" "expected"
        (List.assoc "error" f.Trace.f_meta);
      check cint "events kept" 1 (List.length f.Trace.f_events)

(* --- replay-diff oracle: determinism across identical seeds --- *)

let record_ok spec path =
  match Replay.record spec ~path with
  | Ok run -> run
  | Error e -> Alcotest.failf "record failed: %s" e

let replay_clean path =
  match Replay.replay ~path () with
  | Ok [] -> ()
  | Ok lines ->
      Alcotest.failf "replay diverged:\n%s" (String.concat "\n" lines)
  | Error e -> Alcotest.failf "replay failed: %s" e

let test_attach_determinism () =
  let a = tmp_trace () and b = tmp_trace () in
  let run_a = record_ok (Recipe.attach ~seed:41) a in
  let run_b = record_ok (Recipe.attach ~seed:41) b in
  check cbool "identical seeds, identical event streams" true
    (Trace.diff run_a.Replay.run_events run_b.Replay.run_events = []);
  check cstr "identical seeds, identical guest digest"
    run_a.Replay.run_digest run_b.Replay.run_digest;
  check cstr "identical seeds, byte-identical .vmshtrace" (read_file a)
    (read_file b);
  replay_clean a;
  check cbool "recording is non-trivial" true
    (List.length run_a.Replay.run_events > 50);
  Sys.remove a;
  Sys.remove b

let test_fleet_determinism () =
  let path = tmp_trace () in
  let run = record_ok (Recipe.fleet_run ~seed:7 ~vms:8 ~boot:Recipe.Cold) path in
  (* a clean replay proves the second, independent run matched the
     first event-for-event and digest-for-digest *)
  replay_clean path;
  check cbool "all 8 sessions recorded" true
    (List.exists (fun e -> e.Trace.session = 7) run.Replay.run_events);
  Sys.remove path

(* the recipe must round-trip through the file's header *)
let check_header path recipe =
  match Trace.load path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok f -> (
      match Recipe.of_meta f.Trace.f_meta with
      | Ok r ->
          check Alcotest.(list (pair string string)) "recipe round-trips"
            (Recipe.to_meta recipe) (Recipe.to_meta r);
          f.Trace.f_meta
      | Error e -> Alcotest.failf "recipe unreadable: %s" e)

let test_sweep_cell_determinism () =
  let path = tmp_trace () in
  let recipe =
    Recipe.sweep_cell ~seed:5 ~k:(Some 3) (Recipe.Fault (Some Faults.Inject_eintr))
  in
  let run = record_ok recipe path in
  replay_clean path;
  check cbool "crash cell recorded events" true
    (run.Replay.run_events <> []);
  ignore (check_header path recipe);
  Sys.remove path;
  (* a chaos-matrix cell round-trips its adversary too *)
  let path = tmp_trace () in
  let recipe =
    Recipe.sweep_cell ~seed:11 ~k:None (Recipe.Adversary Hostile.Toctou_scan)
  in
  let run = record_ok recipe path in
  replay_clean path;
  check cbool "hostile cell recorded events" true (run.Replay.run_events <> []);
  check cbool "hostile key in metadata" true
    (List.assoc_opt "hostile" (check_header path recipe) = Some "toctou-scan");
  Sys.remove path

(* Failure artifacts the producers dump under VMSH_TRACE_DIR must replay
   clean from their header alone. *)
let with_dump_dir f =
  let dir = Filename.temp_file "vmsh-dumps" "" in
  Sys.remove dir;
  Unix.putenv "VMSH_TRACE_DIR" dir;
  Fun.protect
    ~finally:(fun () -> Unix.putenv "VMSH_TRACE_DIR" "")
    (fun () -> f dir);
  let files =
    if Sys.file_exists dir then
      List.map (Filename.concat dir) (List.sort compare (Array.to_list (Sys.readdir dir)))
    else []
  in
  List.iter (fun p -> replay_clean p) files;
  let metas =
    List.map
      (fun p ->
        match Trace.load p with
        | Ok f -> f.Trace.f_meta
        | Error e -> Alcotest.failf "load failed: %s" e)
      files
  in
  List.iter Sys.remove files;
  if Sys.file_exists dir then Sys.rmdir dir;
  metas

(* 10 MiB guests boot but cannot take the guest library, so attach jobs
   fail cleanly after symbol analysis — later ones against a cache the
   earlier ones warmed *)
let test_serve_job_artifacts_replay () =
  let module D = Service.Dispatch in
  let metas =
    with_dump_dir (fun _ ->
        let r =
          D.run
            {
              D.default_config with
              D.workers = 4;
              jobs = 8;
              seed = 29;
              ram_mb = 10;
              mix = [ (D.M_attach, 1) ];
            }
        in
        check cbool "jobs failed" true (D.failed r > 0))
  in
  check cbool "artifacts dumped" true (metas <> []);
  check cbool "a warm-cache job among them" true
    (List.exists (fun m -> List.assoc_opt "symcache" m = Some "warm") metas);
  check cbool "a job off worker 0 among them" true
    (List.exists
       (fun m ->
         match List.assoc_opt "worker" m with
         | Some w -> int_of_string w > 0
         | None -> false)
       metas)

(* an unsupported hypervisor fails every session; each artifact is one
   session's recording and replays as that session alone *)
let test_fleet_session_artifacts_replay () =
  let cloud =
    List.find
      (fun p -> p.Hypervisor.Profile.prof_name = "Cloud Hypervisor")
      Hypervisor.Profile.all
  in
  let metas =
    with_dump_dir (fun _ ->
        match
          Fleet.run
            (Fleet.Config.make ~vms:2 () |> Fleet.Config.with_profile cloud)
        with
        | Error e -> Alcotest.failf "fleet: %s" (Vmsh.Vmsh_error.to_string e)
        | Ok r ->
            check cbool "sessions failed" true
              (List.for_all
                 (fun s -> Result.is_error s.Fleet.s_result)
                 r.Fleet.r_sessions))
  in
  check cint "one artifact per session" 2 (List.length metas);
  check Alcotest.(list string) "each names its session" [ "vm0"; "vm1" ]
    (List.filter_map (List.assoc_opt "session") metas)

let test_fuzz_seed_replays () =
  let path = tmp_trace () in
  ignore (record_ok (Recipe.fuzz_seed ~seed:3 ~rate:0.15) path);
  replay_clean path;
  Sys.remove path

let suite =
  [
    ( "trace",
      [
        Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
        Alcotest.test_case "codec rejects garbage" `Quick
          test_codec_rejects_garbage;
        Alcotest.test_case "recorder ring bounds memory" `Quick
          test_ring_bounds;
        Alcotest.test_case "diff reports divergence" `Quick test_diff;
        Alcotest.test_case "dump-on-failure is env-gated" `Quick
          test_dump_on_failure;
        Alcotest.test_case "attach replay is deterministic" `Quick
          test_attach_determinism;
        Alcotest.test_case "fleet --vms 8 replays clean" `Slow
          test_fleet_determinism;
        Alcotest.test_case "sweep crash cell replays clean" `Quick
          test_sweep_cell_determinism;
        Alcotest.test_case "serve-job artifacts replay clean" `Quick
          test_serve_job_artifacts_replay;
        Alcotest.test_case "fleet-session artifacts replay clean" `Quick
          test_fleet_session_artifacts_replay;
        Alcotest.test_case "fuzz-seed recipe replays clean" `Quick
          test_fuzz_seed_replays;
      ] );
  ]

(* Cross-version golden digests. The double-run determinism gates only
   compare two runs of the same build; these pins compare against the
   bytes an earlier build produced, so a refactor that shifts one
   virtual-clock charge, yield point or header key fails here even
   when it is self-consistent. Regenerate a pin only for an intended
   behaviour change, and say so in the change log. *)

module Recipe = Fleet.Session.Recipe

let md5 s = Digest.to_hex (Digest.string s)

let recording recipe =
  let path = Filename.temp_file "vmsh-golden" ".vmshtrace" in
  (match Replay.record recipe ~path with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "record failed: %s" e);
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  md5 s

let pin name want recipe () =
  Alcotest.(check string) name want (recording (Lazy.force recipe))

let test_serve () =
  let module D = Service.Dispatch in
  let r =
    D.run
      { D.default_config with D.workers = 4; jobs = 40; seed = 29; ram_mb = 16 }
  in
  Alcotest.(check string)
    "40-job results" "9d0437e0075b950190232b6370543a12"
    (md5 (D.results_jsonl r))

let suite =
  [
    ( "golden",
      [
        Alcotest.test_case "attach seed 5" `Quick
          (pin "attach" "f4cbd1338e6bc5967b3947bfabfe6acf"
             (lazy (Recipe.attach ~seed:5)));
        Alcotest.test_case "sweep cell inject-eintr k=3" `Quick
          (pin "sweep cell" "d7eba29b4e5d5c7ffcdeaef7e99fe7ce"
             (lazy
               (Recipe.sweep_cell ~seed:5 ~k:(Some 3)
                  (Recipe.Fault (Some Faults.Inject_eintr)))));
        Alcotest.test_case "hostile toctou-scan seed 11" `Quick
          (pin "hostile cell" "9882a1de394dbe1b2b2525e327917888"
             (lazy
               (Recipe.sweep_cell ~seed:11 ~k:None
                  (Recipe.Adversary Hostile.Toctou_scan))));
        Alcotest.test_case "fleet seed 7 vms 2 cold" `Quick
          (pin "cold fleet" "8c4dddbbf71de18429989967c8d9482b"
             (lazy (Recipe.fleet_run ~seed:7 ~vms:2 ~boot:Recipe.Cold)));
        Alcotest.test_case "fleet seed 7 vms 2 fork" `Quick
          (pin "forked fleet" "6807888f1b2d60ac756a486af806940c"
             (lazy
               (Recipe.fleet_run ~seed:7 ~vms:2
                  ~boot:(Recipe.Fork_of (Fleet.Baseline.bake ())))));
        Alcotest.test_case "serve 40 jobs" `Quick test_serve;
      ] );
  ]

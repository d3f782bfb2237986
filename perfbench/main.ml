(* The two-clock benchmark: one seeded workload per process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   An untraced run (--trace 0) prints the workload's end-to-end
   metrics; a traced run (--trace 1) records one span around each
   public call, writes the spans to perfbench/out/ when the run ends,
   and prints the per-layer metrics derived from them. The last line of
   standard output is the result object, holding every metric the run
   computed; perfbench/run.py builds this program, runs it, and passes
   on the result with the metrics BENCHMARK.json names for the mode.
   See perfbench/README.md. *)

open Common

let workloads =
  [
    ("attach-matrix", Attach_matrix.run);
    ("fork-fleet", Fork_fleet.run);
    ("blk-mixed", Blk_mixed.run);
    ("serve-open", Serve_open.run);
  ]

let usage () =
  prerr_endline
    ("usage: main.exe --workload {"
    ^ String.concat "|" (List.map fst workloads)
    ^ "} --seed N --seconds S --trace 0|1");
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string_opt n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (List.assoc_opt !workload workloads, !seed, !seconds, !trace) with
  | Some run, Some seed, Some seconds, Some trace when seconds > 0. ->
      let opts = { seed; seconds; trace } in
      let r = report () in
      let t0 = wall () in
      (match run opts r with
      | tr ->
          if trace then begin
            let dir = Filename.concat "perfbench" "out" in
            (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
            Tracer.write tr
              (Filename.concat dir (Printf.sprintf "spans-%s.jsonl" !workload))
          end
      | exception Too_few_samples msg ->
          prerr_endline ("perfbench: " ^ msg);
          exit 1);
      Printf.printf "run %s seed %d trace %b: %.1f s\n" !workload seed trace
        (wall () -. t0);
      print r
  | _ -> usage ()

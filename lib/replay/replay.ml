(* Scenario-recipe replay: a [.vmshtrace] file's header is the
   {!Fleet.Session.Recipe.t} that produced it, so replaying is just
   re-running that recipe and diffing the two flight recordings and
   guest-state digests. No guest memory image is needed — the recipe
   *is* the reproducer. *)

module Recipe = Fleet.Session.Recipe
module Outcome = Fleet.Session.Outcome

type run = { run_events : Trace.event list; run_digest : string }

let execute ?log_level (r : Recipe.t) =
  match r.Recipe.scenario with
  | Recipe.Fleet_run { seed; vms } -> (
      (* a forked fleet needs no baseline file: baking is itself
         deterministic, so the recipe re-bakes the identical image *)
      let cfg =
        Fleet.Config.make ~vms ()
        |> Fleet.Config.with_seed seed
        |> Fleet.Config.with_profile r.Recipe.profile
        |> Fleet.Config.with_version r.Recipe.kernel
        |> Fleet.Config.with_boot_source r.Recipe.boot
      in
      let cfg =
        match log_level with
        | Some l -> Fleet.Config.with_log_level l cfg
        | None -> cfg
      in
      match Fleet.run cfg with
      | Error e -> Error (Vmsh.Vmsh_error.to_string e)
      | Ok rep ->
          Ok { run_events = Fleet.flight_events rep; run_digest = Fleet.digest rep })
  | _ ->
      let host = Fleet.Session.host ?log_level r in
      let o = Fleet.Session.run ~host r in
      Ok
        {
          run_events = Trace.Recorder.events host.Hostos.Host.recorder;
          run_digest = o.Outcome.digest;
        }

let record ?log_level r ~path =
  match execute ?log_level r with
  | Error _ as e -> e
  | Ok run ->
      let meta = Recipe.to_meta r @ [ ("digest", run.run_digest) ] in
      let oc = open_out_bin path in
      output_string oc (Trace.encode ~meta run.run_events);
      close_out oc;
      Ok run

let replay ?log_level ~path () =
  let ( let* ) = Result.bind in
  let* f = Trace.load path in
  let* r = Recipe.of_meta f.Trace.f_meta in
  let* run = execute ?log_level r in
  let diffs = Trace.diff f.Trace.f_events run.run_events in
  Ok
    (match List.assoc_opt "digest" f.Trace.f_meta with
    | Some d when d <> run.run_digest ->
        diffs
        @ [
            Printf.sprintf "snapshot digest diverges: recorded %s, replay %s" d
              run.run_digest;
          ]
    | _ -> diffs)

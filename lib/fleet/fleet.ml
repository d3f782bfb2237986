module H = Hostos
module Profile = Hypervisor.Profile
module KV = Linux_guest.Kernel_version
module E = Vmsh.Vmsh_error
module Sweep = Fleet_sweep
module Session = Session

module Baseline = struct
  include Baseline

  let bake = Session.bake
end

(* --- configuration ------------------------------------------------ *)

module Config = struct
  type boot_source = Session.Recipe.boot = Cold | Fork_of of Baseline.image

  type t = {
    vms : int;
    seed : int;
    profile : Profile.t;
    version : KV.t;
    fault_rate : float;
    share_symbols : bool;
    log_level : Observe.level option;
    boot_source : boot_source;
  }

  let make ?(vms = 1) () =
    {
      vms;
      seed = 7;
      profile = Profile.qemu;
      version = KV.V5_10;
      fault_rate = 0.0;
      share_symbols = true;
      log_level = None;
      boot_source = Cold;
    }

  let with_vms vms t = { t with vms }
  let with_seed seed t = { t with seed }
  let with_profile profile t = { t with profile }
  let with_version version t = { t with version }
  let with_fault_rate fault_rate t = { t with fault_rate }
  let with_share_symbols share_symbols t = { t with share_symbols }
  let with_log_level level t = { t with log_level = Some level }
  let with_boot_source boot_source t = { t with boot_source }
  let vms t = t.vms
  let seed t = t.seed
  let profile t = t.profile
  let version t = t.version
  let fault_rate t = t.fault_rate
  let share_symbols t = t.share_symbols
  let log_level t = t.log_level
  let boot_source t = t.boot_source
  let is_fork t = match t.boot_source with Fork_of _ -> true | Cold -> false

  let validate t =
    if t.vms <= 0 then Error (E.Invalid_config "fleet: vms must be positive")
    else if t.fault_rate < 0.0 || t.fault_rate > 1.0 then
      Error (E.Invalid_config "fleet: fault_rate must be within [0, 1]")
    else
      match t.boot_source with
      | Cold -> Ok t
      | Fork_of img -> (
          match Baseline.validate img ~profile:t.profile ~version:t.version with
          | Ok () -> Ok t
          | Error e -> Error e)
end

(* --- per-session reports ------------------------------------------ *)

type session_report = {
  s_name : string;
  s_result : (unit, string) result;
  s_attach_ns : float;
  s_fork_ns : float;
  s_total_ns : float;
  s_host : H.Host.t;
  s_digest : string;
}

type report = {
  r_vms : int;
  r_seed : int;
  r_forked : bool;
  r_sessions : session_report list;
  r_yields : int;
  r_cache_hits : int;
  r_cache_misses : int;
  r_schedule : string;
}

let counter_value mx name =
  Observe.Metrics.counter_value (Observe.Metrics.counter mx name)

let run_validated (cfg : Config.t) =
  let vms = cfg.Config.vms and seed = cfg.Config.seed in
  let cache =
    if cfg.Config.share_symbols then
      Some (Session.cache ())
    else None
  in
  let sched = Sched.create () in
  let schedule = Buffer.create (vms * 256) in
  let slice = ref 0 in
  Sched.set_tracer sched
    (Some
       (fun ~name ~now_ns ->
         Buffer.add_string schedule
           (Printf.sprintf "slice %d %s t=%.0f\n" !slice name now_ns);
         incr slice));
  let outcomes = Array.make vms None in
  let sessions =
    List.init vms (fun i ->
        let recipe =
          Session.Recipe.fleet_session ~seed ~vms ~index:i
            ~profile:cfg.Config.profile ~kernel:cfg.Config.version
            ~fault_rate:cfg.Config.fault_rate
            ~boot:cfg.Config.boot_source
        in
        let host = Session.host ?log_level:cfg.Config.log_level recipe in
        let name = recipe.Session.Recipe.hostname in
        (* one session per fiber: every step between yield points
           touches only this session's host *)
        Sched.spawn sched ~name ~clock:host.H.Host.clock (fun () ->
            outcomes.(i) <- Some (Session.run ?cache ~host recipe));
        (name, host))
  in
  let died = Sched.run sched in
  let report i (name, host) =
    let o = Session.Outcome.(match outcomes.(i) with
      | Some o -> o
      | None ->
          (* the fiber died before filing its outcome: a failed session,
             so the report always has [vms] entries *)
          let why =
            match List.nth died i with
            | _, Sched.Failed e -> Printexc.to_string e
            | _, Sched.Done -> "session filed no report"
          in
          { verdict = Faults.Abort.Bug why; error = None; oracle = []; leaked_fds = 0;
            digest = ""; virtual_ns = H.Clock.now_ns host.H.Host.clock; yields = 0;
            fork_ns = Float.nan; attach_ns = Float.nan })
    in
    {
      s_name = name;
      s_result =
        (match o.Session.Outcome.verdict with
        | Faults.Abort.Survived -> Ok ()
        | v -> Error (Faults.Abort.detail v));
      s_attach_ns = o.Session.Outcome.attach_ns;
      s_fork_ns = o.Session.Outcome.fork_ns;
      s_total_ns = o.Session.Outcome.virtual_ns;
      s_host = host;
      s_digest = o.Session.Outcome.digest;
    }
  in
  let hits, misses =
    List.fold_left
      (fun (h, m) (_, host) ->
        let mx = Observe.metrics host.H.Host.observe in
        ( h + counter_value mx "symcache.hits",
          m + counter_value mx "symcache.misses" ))
      (0, 0) sessions
  in
  {
    r_vms = vms;
    r_seed = seed;
    r_forked = Config.is_fork cfg;
    r_sessions = List.mapi report sessions;
    r_yields = Sched.yields sched;
    r_cache_hits = hits;
    r_cache_misses = misses;
    r_schedule = Buffer.contents schedule;
  }

let run cfg =
  match Config.validate cfg with
  | Error e -> Error e
  | Ok cfg -> Ok (run_validated cfg)

let successes r =
  List.filter_map
    (fun s -> if Result.is_ok s.s_result then Some s.s_attach_ns else None)
    r.r_sessions

let fork_latencies r =
  List.filter_map
    (fun s ->
      if Result.is_ok s.s_result && not (Float.is_nan s.s_fork_ns) then
        Some s.s_fork_ns
      else None)
    r.r_sessions

let observe_latencies mx ~label r =
  let hist = Observe.Metrics.histogram mx ("fleet.attach_ns." ^ label) in
  List.iter (Observe.Metrics.observe hist) (successes r);
  match fork_latencies r with
  | [] -> ()
  | forks ->
      let fh = Observe.Metrics.histogram mx ("fleet.fork_ns." ^ label) in
      List.iter (Observe.Metrics.observe fh) forks

let failures r =
  List.length (List.filter (fun s -> Result.is_error s.s_result) r.r_sessions)

let record mx ~label r =
  observe_latencies mx ~label r;
  let bump name by =
    Observe.Metrics.incr ~by (Observe.Metrics.counter mx name)
  in
  if r.r_cache_hits > 0 then bump "symcache.hits" r.r_cache_hits;
  if r.r_cache_misses > 0 then bump "symcache.misses" r.r_cache_misses;
  bump ("fleet.yields." ^ label) r.r_yields;
  if failures r > 0 then bump ("fleet.failures." ^ label) (failures r)

let percentile_of xs p =
  match xs with
  | [] -> Float.nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let i = int_of_float (ceil (p *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) i))

let attach_p r p = percentile_of (successes r) p
let fork_p r p = percentile_of (fork_latencies r) p

(* One hex digest over every session's final guest-state digest, in
   session order — the fleet-wide half of the replay-diff oracle. *)
let digest r =
  Digest.to_hex
    (Digest.string (String.concat ";" (List.map (fun s -> s.s_digest) r.r_sessions)))

(* The fleet's merged flight recording: each session's events in
   session order (each already tagged with its session id). Sessions
   are deterministic, so the concatenation is too. *)
let flight_events r =
  List.concat_map
    (fun s -> Trace.Recorder.events s.s_host.H.Host.recorder)
    r.r_sessions

(* One fleet-wide metrics document: per-session registries folded into
   a global registry (counters and histogram buckets add, so the fleet
   p50/p99 come from every session's samples), plus the per-session
   breakdown. *)
let metrics_json r =
  let agg = Observe.create ~now:(fun () -> 0.0) () in
  let mx = Observe.metrics agg in
  List.iter
    (fun s -> Observe.Metrics.merge_into ~into:mx
        (Observe.metrics s.s_host.H.Host.observe))
    r.r_sessions;
  (* the merge already folded each session's symcache, recovery, stage
     and overlay counters together; add only the fleet-level summary
     the sessions cannot know *)
  observe_latencies mx ~label:"fleet" r;
  let set name v = Observe.Metrics.set_counter (Observe.Metrics.counter mx name) v in
  set "fleet.yields.fleet" r.r_yields;
  if failures r > 0 then set "fleet.failures.fleet" (failures r);
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"fleet\": ";
  Buffer.add_string b (Observe.Export.metrics_json agg);
  Buffer.add_string b ", \"sessions\": {";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "%S: " s.s_name);
      Buffer.add_string b (Observe.Export.metrics_json s.s_host.H.Host.observe))
    r.r_sessions;
  Buffer.add_string b "}}";
  Buffer.contents b

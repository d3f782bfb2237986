(* The one session runner. Every harness that drives "stand a machine
   up, attach, prove the console, detach, check the rollback oracle"
   describes its session as a {!Recipe.t} and hands it to {!run}; the
   recipe is also the header of the session's [.vmshtrace] artifact, so
   whatever ran can be re-run from the file alone. *)

module H = Hostos
module Sfs = Blockdev.Simplefs
module Vmm = Hypervisor.Vmm
module Profile = Hypervisor.Profile
module KV = Linux_guest.Kernel_version
module E = Vmsh.Vmsh_error
module Abort = Faults.Abort

(* --- machine provisioning ------------------------------------------ *)

let boot_disk h ~name =
  let disk = Blockdev.Backend.create ~clock:h.H.Host.clock ~blocks:4096 () in
  let fs = Result.get_ok (Sfs.mkfs (Blockdev.Backend.dev disk) ()) in
  ignore (Sfs.mkdir_p fs "/dev");
  ignore (Sfs.mkdir_p fs "/etc");
  ignore (Sfs.write_file fs "/etc/hostname" (Bytes.of_string (name ^ "\n")));
  Sfs.sync fs;
  disk

let tools_image clock =
  match
    Blockdev.Image.pack ~clock [ Blockdev.Image.file "/bin/busybox" 800_000 ]
  with
  | Ok (backend, _) -> backend
  | Error e -> failwith (H.Errno.show e)

let open_fds h =
  List.fold_left
    (fun acc p -> acc + List.length (H.Proc.fd_numbers p))
    0 h.H.Host.procs

let bake = Baseline.bake_with ~disk:boot_disk

(* A guest RAM size a session can stand a machine up in, rejected as a
   typed config error rather than left to fail inside the boot. *)
let ram_error ram_mb =
  E.Invalid_config
    (Printf.sprintf "ram_mb %d is below the %d MiB the guest boots in" ram_mb
       Vmm.min_ram_mb)

let check_ram_mb ram_mb =
  if ram_mb >= Vmm.min_ram_mb then Ok () else Error (ram_error ram_mb)

(* --- served job kinds ---------------------------------------------- *)

module Job_kind = struct
  type t =
    | Attach
    | Attach_detach
    | Sweep_cell of { cls : string; k : int }
    | Fuzz_seed of { boost : string }
    | Hostile_attach of { cls : string }

  let to_string = function
    | Attach -> "attach"
    | Attach_detach -> "attach-detach"
    | Sweep_cell { cls; k } -> Printf.sprintf "sweep:%s:%d" cls k
    | Fuzz_seed { boost } -> Printf.sprintf "fuzz:%s" boost
    | Hostile_attach { cls } -> Printf.sprintf "hostile:%s" cls

  (* only class names the fault and hostile engines know parse: a bogus
     one would otherwise run with nothing armed *)
  let of_string s =
    let fault c = Faults.of_name c <> None in
    match String.split_on_char ':' s with
    | [ "attach" ] -> Some Attach
    | [ "attach-detach" ] -> Some Attach_detach
    | [ "sweep"; cls; k ] when fault cls -> (
        match int_of_string_opt k with
        | Some k when k >= 0 -> Some (Sweep_cell { cls; k })
        | _ -> None)
    | [ "fuzz"; boost ] when fault boost -> Some (Fuzz_seed { boost })
    | [ "hostile"; cls ] when Hostile.of_name cls <> None ->
        Some (Hostile_attach { cls })
    | _ -> None
end

(* --- recipes -------------------------------------------------------- *)

module Recipe = struct
  type boot = Cold | Fork_of of Baseline.image

  type perturbation =
    | Quiet
    | Rate of {
        plan_seed : int;
        rate : float;
        cap : int;
        boost : Faults.cls option;
        at_boot : bool;  (** armed before the boot, not by the attach *)
      }
    | Crash of { plan_seed : int; k : int option; fault : Faults.cls option }
        (** abort at yield [k] ([None]: the probe, parked out of reach) *)
    | Hostile of { plan_seed : int; cls : Hostile.cls; k : int option }
    | Script of { script : (Faults.cls * int) list; skew : (int * int) list }

  (* the driver that generated the recipe; it names the header *)
  type scenario =
    | Attach
    | Sweep_cell
    | Fleet_run of { seed : int; vms : int }
    | Fleet_session of { seed : int; vms : int }
    | Serve_job of { tenant : string; kind : Job_kind.t }
    | Fuzz of { seed : int; rate : float }

  (* the symbol cache the attach met: none, a shared one it missed (the
     build-id lookup still costs a read), or one another machine had
     filled — the entry's witness is that machine's, and so is the hit
     path's cost *)
  type symcache = Unshared | Missed | Hit of { seed : int; hostname : string }

  type t = {
    scenario : scenario;
    seed : int;  (** the machine's host seed *)
    start_ns : float;  (** the machine's clock when the session starts *)
    session : int;  (** flight-recorder session id *)
    worker : int;  (** serving worker slot, [-1] outside the service *)
    hostname : string;
    profile : Profile.t;
    kernel : KV.t;
    ram_mb : int;
    boot : boot;
    perturbation : perturbation;
    echo : int;  (** echo requests after the console round trip *)
    oracle : bool;  (** snapshot rollback oracle (the fd-leak check always runs) *)
    symcache : symcache;
  }

  type cell = Fault of Faults.cls option | Adversary of Hostile.cls

  let base scenario ~seed ~hostname =
    { scenario; seed; start_ns = 0.; session = 0; worker = -1; hostname;
      profile = Profile.qemu; kernel = KV.V5_10; ram_mb = 64; boot = Cold;
      perturbation = Quiet; echo = 0; oracle = false; symcache = Unshared }

  let sweep_cell ?(boot = Cold) ~seed ~k cell =
    let plan_seed = (seed * 31) + Option.value k ~default:0 in
    let perturbation =
      match cell with
      | Fault fault -> Crash { plan_seed; k; fault }
      | Adversary cls -> Hostile { plan_seed; cls; k }
    in
    { (base Sweep_cell ~seed ~hostname:"sweep-vm") with
      boot; perturbation; oracle = true }

  let attach ~seed = { (sweep_cell ~seed ~k:None (Fault None)) with scenario = Attach }

  (* the per-session host seed is well separated from the siblings', so
     each session draws an independent stream *)
  let fleet_session ~seed ~vms ~index ~profile ~kernel ~fault_rate ~boot =
    let perturbation =
      if fault_rate > 0.0 then
        Rate { plan_seed = (seed * 31) + index; rate = fault_rate;
               cap = max_int; boost = None; at_boot = false }
      else Quiet
    in
    { (base (Fleet_session { seed; vms }) ~seed:((seed * 1009) + (index * 17))
         ~hostname:(Printf.sprintf "vm%d" index))
      with session = index; profile; kernel; boot; perturbation }

  let fleet_run ~seed ~vms ~boot =
    { (fleet_session ~seed ~vms ~index:0 ~profile:Profile.qemu ~kernel:KV.V5_10
         ~fault_rate:0.0 ~boot)
      with scenario = Fleet_run { seed; vms } }

  let serve_job ~seed ~id ~tenant ~kind ~start_ns ~ram_mb ~worker =
    let perturbation =
      match (kind : Job_kind.t) with
      | Attach | Attach_detach -> Quiet
      | Fuzz_seed { boost } ->
          (* cap 4 injections per class — fewer consecutive faults than
             the 6-attempt retry bound, so transient schedules are always
             survivable and a fuzz job failure means a real bug *)
          Rate { plan_seed = (seed * 31) + 7; rate = 0.25; cap = 4;
                 boost = Faults.of_name boost; at_boot = false }
      | Sweep_cell { cls; k } ->
          Crash { plan_seed = (seed * 31) + k; k = Some k; fault = Faults.of_name cls }
      | Hostile_attach { cls } -> (
          match Hostile.of_name cls with
          | Some cls -> Hostile { plan_seed = (seed * 31) + 13; cls; k = None }
          | None -> Quiet)
    in
    { (base (Serve_job { tenant; kind }) ~seed ~hostname:(Printf.sprintf "job%d" id))
      with start_ns; session = id; worker; ram_mb; perturbation;
           oracle = Job_kind.(match kind with Attach | Fuzz_seed _ -> false | _ -> true) }

  (* Boost one class per seed to certainty (with a small cap so bounded
     retries still win): 25 seeds sweep all 7 classes several times over
     while the background rate keeps every other class in play. *)
  let fuzz_seed ~seed ~rate =
    let boost = Some (List.nth Faults.all (seed mod List.length Faults.all)) in
    { (base (Fuzz { seed; rate }) ~seed:(0xf0 + seed) ~hostname:"cli-vm") with
      echo = 20;
      perturbation =
        Rate { plan_seed = seed; rate; cap = max_int; boost; at_boot = true } }

  (* The trace-mutation fuzzer's attack on a recorded recipe: the
     recipe's machine (for a fleet, the mutated session's) under a
     scripted plan, oracle live. *)
  let attack r ~session ~script ~skew =
    let seed =
      match r.scenario with
      | Fleet_run { seed; _ } | Fleet_session { seed; _ } ->
          (seed * 1009) + (session * 17)
      | Attach | Sweep_cell | Serve_job _ | Fuzz _ -> r.seed
    in
    { (attach ~seed) with perturbation = Script { script; skew } }

  let fault_label r =
    match r.perturbation with
    | Crash { fault = Some c; _ } -> Faults.name c
    | _ -> "fault-free"

  let cell_label r =
    match r.perturbation with
    | Hostile { cls; _ } -> "hostile-" ^ Hostile.name cls
    | _ -> fault_label r

  let crash_k r =
    match r.perturbation with
    | Crash { k; _ } | Hostile { k; _ } -> Option.value k ~default:(-1)
    | Quiet | Rate _ | Script _ -> -1

  (* The header codec. Each scenario writes the keys earlier versions
     wrote, in their order, so recordings stay byte-identical; fields
     those keys cannot express follow, only where they differ from the
     default. *)
  let to_meta r =
    let i = string_of_int in
    let boot = match r.boot with Cold -> "cold" | Fork_of _ -> "fork" in
    let opt cond kv = if cond then [ kv ] else [] in
    (match r.scenario with
    | Attach -> [ ("scenario", "attach"); ("seed", i r.seed) ]
    | Sweep_cell ->
        [ ("scenario", "sweep-cell"); ("sweep-seed", i r.seed);
          ("class", fault_label r); ("k", i (crash_k r)) ]
        @ opt (boot = "fork") ("boot", boot)
        @ (match r.perturbation with
          | Hostile { cls; _ } -> [ ("hostile", Hostile.name cls) ]
          | _ -> [])
    | Fleet_run { seed; vms } | Fleet_session { seed; vms } ->
        [ ("scenario", "fleet"); ("fleet-seed", i seed); ("vms", i vms);
          ("boot", boot) ]
        @ (match r.scenario with
          | Fleet_session _ -> [ ("session", r.hostname) ]
          | _ -> [])
        @ (match r.perturbation with
          | Rate { rate; _ } -> [ ("fault-rate", string_of_float rate) ]
          | _ -> [])
    | Serve_job { tenant; kind } ->
        [ ("scenario", "serve-job"); ("job", i r.session); ("tenant", tenant);
          ("kind", Job_kind.to_string kind); ("job-seed", i r.seed);
          ("start-ns", Printf.sprintf "%.17g" r.start_ns);
          ("ram-mb", i r.ram_mb); ("worker", i r.worker) ]
    | Fuzz { seed; rate } ->
        [ ("scenario", "fuzz"); ("fuzz-seed", i seed);
          ("rate", string_of_float rate) ])
    @ opt (r.profile.Profile.prof_name <> Profile.qemu.Profile.prof_name)
        ("profile", r.profile.Profile.prof_name)
    @ opt (r.kernel <> KV.V5_10) ("kernel", KV.to_string r.kernel)
    @
    match r.symcache with
    | Unshared -> []
    | Missed -> [ ("symcache", "miss") ]
    | Hit { seed; hostname } ->
        [ ("symcache", "warm"); ("symcache-seed", i seed);
          ("symcache-host", hostname) ]

  let of_meta meta =
    let ( let* ) = Result.bind in
    let str k = List.assoc_opt k meta in
    let named what find k default =
      match str k with
      | None -> Ok default
      | Some v -> Option.to_result (find v) ~none:(Printf.sprintf "unknown %s: %s" what v)
    in
    let int k default = named "integer" int_of_string_opt k default in
    let float k default =
      Option.value (Option.bind (str k) float_of_string_opt) ~default
    in
    (* artifacts dumped by earlier versions carry the scenario seed
       under its own key; a bare [seed] is the fallback *)
    let seed k default = if str k = None then int "seed" default else int k default in
    let boot () = if str "boot" = Some "fork" then Fork_of (bake ()) else Cold in
    let* profile =
      named "profile"
        (fun p -> List.find_opt (fun x -> x.Profile.prof_name = p) Profile.all)
        "profile" Profile.qemu
    in
    let* kernel = named "kernel" KV.of_string "kernel" KV.V5_10 in
    let* r =
      match str "scenario" with
      | None -> Error "trace has no scenario metadata; cannot derive a recipe"
      | Some "attach" ->
          let* seed = int "seed" 5 in
          Ok (attach ~seed)
      | Some "sweep-cell" ->
          let* seed = seed "sweep-seed" 5 in
          let* k = int "k" (-1) in
          let* cell =
            match str "hostile" with
            | Some _ ->
                let* h =
                  named "hostile class" Hostile.of_name "hostile" Hostile.Toctou_scan
                in
                Ok (Adversary h)
            | None when str "class" = Some "fault-free" -> Ok (Fault None)
            | None ->
                let* c =
                  named "fault class" (fun c -> Option.map Option.some (Faults.of_name c))
                    "class" None
                in
                Ok (Fault c)
          in
          Ok (sweep_cell ~boot:(boot ()) ~seed ~k:(if k < 0 then None else Some k) cell)
      | Some "fleet" -> (
          let* seed = seed "fleet-seed" 7 in
          let* vms = int "vms" 1 in
          match str "session" with
          | None -> Ok (fleet_run ~seed ~vms ~boot:(boot ()))
          | Some _ ->
              let* index =
                named "fleet session" (fun n -> Scanf.sscanf_opt n "vm%d%!" Fun.id)
                  "session" 0
              in
              Ok (fleet_session ~seed ~vms ~index ~profile ~kernel
                    ~fault_rate:(float "fault-rate" 0.0) ~boot:(boot ())))
      | Some "serve-job" ->
          let* seed = int "job-seed" 0 in
          let* id = int "job" 0 in
          let* ram_mb = int "ram-mb" 32 in
          let* worker = int "worker" (-1) in
          let* kind = named "job kind" Job_kind.of_string "kind" Job_kind.Attach in
          Ok (serve_job ~seed ~id ~tenant:(Option.value (str "tenant") ~default:"t0")
                ~kind ~start_ns:(float "start-ns" 0.) ~ram_mb ~worker)
      | Some "fuzz" ->
          let* seed = int "fuzz-seed" 0 in
          Ok (fuzz_seed ~seed ~rate:(float "rate" 0.15))
      | Some s -> Error ("unknown scenario: " ^ s)
    in
    let* symcache =
      match str "symcache" with
      | Some "warm" ->
          let* seed = int "symcache-seed" r.seed in
          let hostname = Option.value (str "symcache-host") ~default:r.hostname in
          Ok (Hit { seed; hostname })
      | Some "miss" -> Ok Missed
      | _ -> Ok Unshared
    in
    Ok { r with profile; kernel; symcache }

  let artifact_name r =
    match r.scenario with
    | Attach | Sweep_cell -> Printf.sprintf "sweep-%s-k%d" (cell_label r) (crash_k r)
    | Fleet_run { seed; _ } | Fleet_session { seed; _ } ->
        Printf.sprintf "fleet-s%d-%s" seed r.hostname
    | Serve_job _ -> Printf.sprintf "serve-job%d-seed%d" r.session r.seed
    | Fuzz { seed; _ } -> Printf.sprintf "fuzz-seed%d" seed
end

(* --- outcomes ------------------------------------------------------- *)

module Outcome = struct
  type t = {
    verdict : Abort.verdict;
    error : string option;  (** rendered attach or detach error *)
    oracle : string list;  (** snapshot-oracle discrepancies *)
    leaked_fds : int;
    digest : string;  (** guest-state digest; [""] when none is taken *)
    virtual_ns : float;  (** the session's virtual clock at the end *)
    yields : int;  (** yield points the attach crossed *)
    fork_ns : float;  (** stand-up cost of a fork; [nan] for a cold boot *)
    attach_ns : float;  (** attach through detach; [nan] if never stood up *)
  }

  (* How far the session got: an exception escaped, the attach aborted
     with a rendered error, or it committed (with the reason the
     workload or the detach went wrong, if one did). *)
  type attempt = Raised of string | Aborted of string | Ran of string option

  let budget_ns = 120e9

  (* The one verdict function. A run over the virtual-time budget is a
     hang (every retry loop in the substrate is bounded); an escaped
     exception, an error that does not round-trip through the taxonomy,
     a broken workload, an oracle divergence or a leaked descriptor is a
     bug; an abort that restored everything is a clean abort. *)
  let grade ~elapsed_ns ~oracle ~leaked_fds attempt =
    if elapsed_ns > budget_ns then
      Abort.Bug
        (Printf.sprintf "hang: %.0f ms of virtual time exceeds the budget"
           (elapsed_ns /. 1e6))
    else
      match attempt with
      | Raised m -> Abort.Bug ("unclean: " ^ m)
      | Aborted m when E.to_string (E.of_string m) <> m ->
          Abort.Bug ("unclean: error does not round-trip: " ^ m)
      | Ran (Some why) -> Abort.Bug ("unclean: " ^ why)
      | _ when oracle <> [] -> Abort.Bug ("oracle: " ^ List.hd oracle)
      | _ when leaked_fds > 0 ->
          Abort.Bug (Printf.sprintf "%d descriptors leaked" leaked_fds)
      | Ran None -> Abort.Survived
      | Aborted m -> Abort.Clean_abort m

  let is_hang o =
    match o.verdict with
    | Abort.Bug m -> String.length m >= 5 && String.sub m 0 5 = "hang:"
    | Abort.Survived | Abort.Clean_abort _ -> false
end

(* --- arming --------------------------------------------------------- *)

let plan (p : Recipe.perturbation) =
  let classed ~seed ~rate ?cap cls =
    let plan = Faults.create ~seed ~rate ?cap () in
    Option.iter (fun c -> Faults.set_class plan c ~rate:1.0 ~cap:2) cls;
    Some plan
  in
  match p with
  | Quiet -> None
  | Rate { plan_seed; rate; cap; boost; _ } -> classed ~seed:plan_seed ~rate ~cap boost
  | Crash { plan_seed; fault; _ } -> classed ~seed:plan_seed ~rate:0.0 fault
  | Hostile { plan_seed; _ } -> classed ~seed:plan_seed ~rate:0.0 None
  | Script { script; skew } ->
      let plan = Faults.create ~seed:0 ~rate:0.0 () in
      Faults.set_script plan script;
      Faults.set_skew_script plan skew;
      Some plan

(* The yield hooks: the crash point, the in-guest adversary (one seeded
   step per cooperative yield of the attach path) and the timewarp
   executor (a scripted skew stretches the virtual clock by the
   factor's excess over unity; compression adds nothing, virtual time
   is monotone). *)
let arm ~host ~seed vmm plan (p : Recipe.perturbation) =
  let crash k = Faults.set_abort_at_yield plan (Some (Option.value k ~default:max_int)) in
  match p with
  | Quiet | Rate _ -> ()
  | Crash { k; _ } -> crash k
  | Hostile { cls; k; _ } ->
      crash k;
      let eng = Hostile.create ~seed ~cls vmm in
      Faults.set_on_yield plan (Some (fun _ -> Hostile.step eng))
  | Script { skew; _ } ->
      crash None;
      if skew <> [] then
        Faults.set_on_skew plan
          (Some
             (fun permille ->
               let stretch_ns = float_of_int (max 0 (permille - 1000)) *. 1e3 in
               if stretch_ns > 0. then H.Clock.advance host.H.Host.clock stretch_ns))

(* --- the runner ----------------------------------------------------- *)

let host ?log_level (r : Recipe.t) =
  let host = H.Host.create ~seed:r.seed () in
  Option.iter (Observe.set_log_level host.H.Host.observe) log_level;
  H.Clock.advance host.H.Host.clock r.start_ns;
  host

let counter_value mx name =
  List.fold_left
    (fun acc c ->
      if Observe.Metrics.counter_name c = name then acc + Observe.Metrics.counter_value c
      else acc)
    0 (Observe.Metrics.counters mx)

(* A symbol cache shared by sessions. It remembers the machine that
   filled it, so a session that hit it can name that machine in its
   header and a replay can warm its own cache from the same one. *)
type cache = {
  symbols : Vmsh.Symbol_analysis.Cache.t;
  mutable filler : (int * string) option;  (** its seed and hostname *)
}

let cache () = { symbols = Vmsh.Symbol_analysis.Cache.create (); filler = None }

(* Stand the machine up: a cold boot builds disk, VMM and guest; a fork
   clones the baked baseline through CoW overlays and is charged only
   the linked-clone cost. *)
let stand_up ~host (r : Recipe.t) =
  match r.boot with
  | Cold when r.ram_mb < Vmm.min_ram_mb -> Error (ram_error r.ram_mb)
  | Cold ->
      let disk = boot_disk host ~name:r.hostname in
      let disable_seccomp = r.profile.Profile.prof_name = "Firecracker" in
      let vmm =
        Vmm.create host ~profile:r.profile ~disk ~ram_mb:r.ram_mb ~disable_seccomp ()
      in
      Ok (vmm, Vmm.boot vmm ~version:r.kernel, None)
  | Fork_of img -> (
      match Baseline.fork img ~host ~profile:r.profile ~name:r.hostname with
      | Ok f ->
          let mx = Observe.metrics host.H.Host.observe in
          Observe.Metrics.observe
            (Observe.Metrics.histogram mx "fleet.fork_ns")
            f.Baseline.fk_fork_ns;
          Ok (f.Baseline.fk_vmm, f.Baseline.fk_guest, Some f)
      | Error e -> Error e)

(* The session after its attach committed: console round trip, echo
   workload, detach. Returns why it went wrong, if it did, and the
   journal's late writes the oracle must forgive. *)
let use (r : Recipe.t) ~host vmm guest ~forked session =
  ignore (Vmsh.Attach.console_recv session);
  let out = Vmsh.Attach.console_roundtrip session "hostname" in
  let echoed =
    r.echo = 0
    || (Workloads.Traffic.run_client vmm guest ~requests:r.echo ~payload_size:64
          ~mode:Workloads.Traffic.Echo ())
         .Workloads.Traffic.completed > 0
  in
  let late =
    match Vmsh.Attach.journal session with
    | Some j -> Vmsh.Journal.late_writes j
    | None -> []
  in
  let own = r.hostname ^ "\n" in
  match Vmsh.Attach.detach session with
  | Error e -> (Outcome.Ran (Some "detach failed"), Some (E.to_string e), late)
  | Ok () when out = "" -> (Outcome.Ran (Some "console dead after attach"), None, late)
  | Ok () when forked && not (String.starts_with ~prefix:own out) ->
      (* a fork must answer with its own per-clone hostname: the one
         write that diverged it from the baseline and every sibling *)
      let why =
        Printf.sprintf "fork isolation: console answered %S, want %S" out r.hostname
      in
      (Outcome.Ran (Some why), None, late)
  | Ok () when (not echoed) && Faults.injected host.H.Host.faults Faults.Link_burst = 0 ->
      (Outcome.Ran (Some "echo made no progress despite a clean link"), None, late)
  | Ok () -> (Outcome.Ran None, None, late)

let rec exec ?cache:shared ~host (r : Recipe.t) =
  let clock = host.H.Host.clock in
  let mx = Observe.metrics host.H.Host.observe in
  (* without the live run's shared cache, stand in one in the state the
     recipe recorded: a hit replays against a cache warmed by the
     machine that filled the live one *)
  let shared =
    match (shared, r.symcache) with
    | Some c, _ -> Some c
    | None, Unshared -> None
    | None, Missed -> Some (cache ())
    | None, Hit { seed; hostname } ->
        let c = cache () in
        let filler =
          { r with seed; hostname; symcache = Missed; perturbation = Quiet;
                   oracle = false; echo = 0 }
        in
        ignore (exec ~cache:c ~host:(H.Host.create ~seed ()) filler : Outcome.t);
        Some c
  in
  let serving = match r.scenario with Serve_job _ -> true | _ -> false in
  let service kind args =
    if serving then
      Trace.Recorder.record host.H.Host.recorder ~kind
        ~args:(List.map (fun (k, v) -> (k, Trace.I v)) args) ()
  in
  Trace.Recorder.set_session host.H.Host.recorder r.session;
  service "service.start" [ ("job", r.session); ("worker", r.worker) ];
  let plan = plan r.perturbation in
  let at_boot = match r.perturbation with Rate { at_boot; _ } -> at_boot | _ -> false in
  if at_boot then Option.iter (H.Host.arm_faults host) plan;
  let grade ?(oracle = []) ?(leaked_fds = 0) ?(digest = "") ?(yields = 0) ?fork_ns
      ~attach_ns attempt error =
    let virtual_ns = H.Clock.now_ns clock in
    service "service.complete" [ ("job", r.session) ];
    { Outcome.verdict =
        Outcome.grade ~elapsed_ns:(virtual_ns -. r.start_ns) ~oracle ~leaked_fds attempt;
      error; oracle; leaked_fds; digest; virtual_ns; yields;
      fork_ns = Option.value fork_ns ~default:Float.nan;
      attach_ns = attach_ns virtual_ns }
  in
  match stand_up ~host r with
  | exception e ->
      let m = Printexc.to_string e in
      grade ~attach_ns:(fun _ -> Float.nan) (Outcome.Raised m) (Some m)
  | Error (E.Invalid_config _ as e) ->
      (* refused before anything was stood up: nothing to roll back *)
      let m = E.to_string e in
      grade ~attach_ns:(fun _ -> Float.nan) (Outcome.Aborted m) (Some m)
  | Error e ->
      let m = E.to_string e in
      grade ~attach_ns:(fun _ -> Float.nan) (Outcome.Raised m) (Some m)
  | Ok (vmm, guest, forked) ->
      let fork_ns = Option.map (fun f -> f.Baseline.fk_fork_ns) forked in
      let t0 = H.Clock.now_ns clock in
      let vm = Vmm.kvm_vm vmm in
      Option.iter (fun p -> arm ~host ~seed:r.seed vmm p r.perturbation) plan;
      let before = if r.oracle then Some (Vmsh.Snapshot.capture vm) else None in
      let fds_before = open_fds host in
      let network =
        if r.echo = 0 then None
        else Some (Workloads.Traffic.make_network host ~mode:Workloads.Traffic.Echo ())
      in
      let config =
        let open Vmsh.Attach.Config in
        let c = make () in
        let c = match shared with Some k -> with_symbol_cache k.symbols c | None -> c in
        let c = match plan with Some p when not at_boot -> with_faults p c | _ -> c in
        match network with
        | Some (fabric, port) -> with_net { Vmsh.Attach.fabric; port } c
        | None -> c
      in
      let attached =
        match
          Vmsh.Attach.attach host ~hypervisor_pid:(Vmm.pid vmm)
            ~fs_image:(tools_image clock) ~config
            ~pump:(fun () -> Vmm.run_until_idle vmm)
            ()
        with
        | result -> Ok result
        | exception e -> Error (Printexc.to_string e)
      in
      (match shared with
      | Some c when c.filler = None && counter_value mx "symcache.misses" > 0 ->
          c.filler <- Some (r.seed, r.hostname)
      | _ -> ());
      let yields = Option.fold ~none:0 ~some:Faults.yield_ticks plan in
      let attempt, error, late, yields =
        match attached with
        | Error m -> (Outcome.Raised m, None, [], 0)
        | Ok (Error e) ->
            let m = E.to_string e in
            (Outcome.Aborted m, Some m, [], 0)
        | Ok (Ok session) -> (
            match use r ~host vmm guest ~forked:(forked <> None) session with
            | attempt, error, late -> (attempt, error, late, yields)
            | exception e -> (Outcome.Raised (Printexc.to_string e), None, [], yields))
      in
      let after, oracle =
        match before with
        | None -> (None, [])
        | Some before ->
            let exclude = Vmsh.Snapshot.dirty_since vm before @ late in
            let after = Vmsh.Snapshot.capture vm in
            (Some after, Vmsh.Snapshot.diff ~before ~after ~exclude)
      in
      let leaked_fds = open_fds host - fds_before in
      (* a fork's overlay occupancy: pages still shared with the
         baseline vs pages the clone privately copied *)
      Option.iter
        (fun f ->
          let s = Baseline.resident f in
          let set name v =
            Observe.Metrics.set_counter (Observe.Metrics.counter mx name) v
          in
          set "overlay.pages_copied" s.H.Mem.cs_pages_copied;
          set "overlay.pages_shared" (s.H.Mem.cs_pages_total - s.H.Mem.cs_pages_copied);
          set "overlay.silent_writes" s.H.Mem.cs_silent_writes;
          set "overlay.resident_bytes" s.H.Mem.cs_resident_bytes)
        forked;
      (* a zero-virtual-cost guest-state digest, compared between a run
         and its replay; a fleet reports one per session *)
      let digest =
        match (after, r.scenario) with
        | Some after, _ -> Vmsh.Snapshot.digest after
        | None, (Fleet_run _ | Fleet_session _) ->
            Vmsh.Snapshot.digest (Vmsh.Snapshot.capture vm)
        | None, _ -> ""
      in
      grade ~oracle ~leaked_fds ~digest ~yields ?fork_ns ~attach_ns:(fun now -> now -. t0)
        attempt error

(* Run the recipe on [host] (made by {!host}). A failed session — a bug,
   or an abort nothing provoked — leaves its recipe-headed flight
   recording when VMSH_TRACE_DIR is set. *)
let run ?cache ~host (r : Recipe.t) =
  let o = exec ?cache ~host r in
  let failed =
    match (o.Outcome.verdict, r.perturbation) with
    | Abort.Bug _, _ | Abort.Clean_abort _, Quiet -> true
    | _ -> false
  in
  (match r.perturbation with
  | Script _ -> () (* the mutation campaign writes its own reproducer *)
  | _ when failed ->
      let hit = counter_value (Observe.metrics host.H.Host.observe) "symcache.hits" > 0 in
      let symcache =
        match cache with
        | None -> r.symcache
        | Some c when hit ->
            let seed, hostname = Option.value c.filler ~default:(r.seed, r.hostname) in
            Recipe.Hit { seed; hostname }
        | Some _ -> Recipe.Missed
      in
      ignore
        (Trace.dump_on_failure host.H.Host.recorder ~name:(Recipe.artifact_name r)
           ~extra_meta:
             (Recipe.to_meta { r with symcache }
             @ (if o.Outcome.digest = "" then [] else [ ("digest", o.Outcome.digest) ])
             @ [ ("error", Abort.detail o.Outcome.verdict) ])
           ())
  | _ -> ());
  o

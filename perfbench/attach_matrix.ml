(* attach-matrix: a closed loop with one client. Every session is one
   cold session over a cell of the Table-1 matrix (five hypervisor
   profiles x six LTS kernels), with no shared symbol cache:

     fresh host -> disk -> Vmm.create/boot -> Snapshot.capture ->
     attach -> console "hostname" -> detach -> Snapshot.check

   and the host is dropped when the session ends. It loads the boot,
   attach, symbol-analysis and snapshot-oracle layers and barely touches
   the virtio data path. *)

open Common
module Vmm = Hypervisor.Vmm
module Profile = Hypervisor.Profile
module KV = Linux_guest.Kernel_version

(* The first [min_sessions] sessions are the virtual-clock sample; 40
   is what a p75 needs (ten samples beyond it). *)
let min_sessions = 40
let ram_mb = 32
let stages = [ "memslot-dump"; "register-read"; "symbol-analysis"; "device-setup"; "klib-sideload" ]
let abs_ksymtab v = KV.ksymtab_layout v <> KV.Prel32

(* The seeded order of the 30 cells. Cells alternate between the
   absolute-ksymtab kernels (4.4-4.14) and the PREL32 ones, so any 40
   consecutive sessions hold 20 of each and the per-layout attach
   medians always have their samples. *)
let cells seed =
  let rng = Random.State.make [| seed; 0xa77 |] in
  let shuffle l =
    let a = Array.of_list l in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    Array.to_list a
  in
  let all =
    List.concat_map (fun p -> List.map (fun v -> (p, v)) KV.all_lts) Profile.all
  in
  let abs, prel = List.partition (fun (_, v) -> abs_ksymtab v) all in
  Array.of_list
    (List.concat (List.map2 (fun a b -> [ a; b ]) (shuffle abs) (shuffle prel)))

type outcome = {
  wall_s : float;
  attach_virt_ns : float;  (** [nan] when the attach failed *)
  session_virt_ns : float;  (** the session's whole virtual time *)
  events : int;  (** modelled events the session's host counted *)
  stage_ns : (string * float) list;  (** traced runs only *)
}

let session tr r ~host_seed ~index (profile, version) =
  let name = Printf.sprintf "am%d" index in
  let attach_virt_ns = ref Float.nan
  and session_virt_ns = ref Float.nan
  and events = ref 0
  and stage_ns = ref [] in
  Tracer.set_session tr index;
  let t0 = wall () in
  (try
     Tracer.span tr "session" (fun () ->
         let h =
           Tracer.span tr "hostos.host_create" (fun () ->
               H.Host.create ~seed:host_seed ())
         in
         let clock = h.H.Host.clock in
         let sp layer f = Tracer.span tr ~clock layer f in
         let disk =
           sp "blockdev.disk" (fun () -> make_disk h ~blocks:4096 ~name)
         in
         let vmm =
           sp "hypervisor.create" (fun () ->
               Vmm.create h ~profile ~disk ~ram_mb
                 ~disable_seccomp:
                   (profile.Profile.prof_name = Profile.firecracker.Profile.prof_name)
                 ())
         in
         ignore (sp "hypervisor.boot" (fun () -> Vmm.boot vmm ~version));
         let vm = Vmm.kvm_vm vmm in
         let before = sp "snapshot.capture" (fun () -> Vmsh.Snapshot.capture vm) in
         let fs_image = sp "blockdev.image_pack" (fun () -> tools_image h) in
         let config =
           Vmsh.Attach.Config.(
             make () |> with_pci (not profile.Profile.mmio_transport))
         in
         let v0 = Clock.now_ns clock in
         match
           sp "attach" (fun () ->
               Vmsh.Attach.attach h ~hypervisor_pid:(Vmm.pid vmm) ~fs_image
                 ~config
                 ~pump:(fun () -> Vmm.run_until_idle vmm)
                 ())
         with
         | Error e ->
             check r false (fun () ->
                 Printf.sprintf "%s attach: %s" name (Vmsh.Vmsh_error.to_string e))
         | Ok s ->
             attach_virt_ns := Clock.now_ns clock -. v0;
             check r true (fun () -> "");
             let out =
               sp "console" (fun () ->
                   ignore (Vmsh.Attach.console_recv s);
                   Vmsh.Attach.console_roundtrip s "hostname")
             in
             check r (answers_hostname ~name out) (fun () ->
                 Printf.sprintf "%s console answered %S" name out);
             let late =
               match Vmsh.Attach.journal s with
               | Some j -> Vmsh.Journal.late_writes j
               | None -> []
             in
             let detached = sp "detach" (fun () -> Vmsh.Attach.detach s) in
             check r (Result.is_ok detached) (fun () -> name ^ " detach failed");
             let clean =
               sp "snapshot.check" (fun () ->
                   let exclude = Vmsh.Snapshot.dirty_since vm before @ late in
                   Vmsh.Snapshot.check ~before ~after:(Vmsh.Snapshot.capture vm)
                     ~exclude)
             in
             check r clean (fun () -> name ^ " snapshot oracle found a difference");
             events := Common.events (Clock.counters clock);
             session_virt_ns := Clock.now_ns clock;
             if tr.Tracer.enabled then
               let mx = Observe.metrics h.H.Host.observe in
               stage_ns :=
                 List.map
                   (fun st ->
                     ( st,
                       Observe.Metrics.max_value
                         (Observe.Metrics.histogram mx
                            ("stage.attach." ^ st ^ "_ns")) ))
                   stages)
   with e ->
     check r false (fun () ->
         Printf.sprintf "%s raised %s" name (Printexc.to_string e)));
  {
    wall_s = wall () -. t0;
    attach_virt_ns = !attach_virt_ns;
    session_virt_ns = !session_virt_ns;
    events = !events;
    stage_ns = !stage_ns;
  }

let run opts r =
  let tr = Tracer.create ~enabled:opts.trace in
  let cells = cells opts.seed in
  let cell i = cells.(i mod Array.length cells) in
  let host_seed i = (opts.seed * 10_007) + i in
  (* set-up: warm-up sessions outside the window, the same for every
     seed, so heap growth and first-touch costs are paid before timing *)
  let setup_s, () =
    timed_setup ~k:5 (fun () ->
        ignore
          (session (Tracer.create ~enabled:false) r ~host_seed:1 ~index:(-1)
             (Profile.qemu, KV.V5_10)))
  in
  let outcomes = ref [] in
  let loop =
    closed_loop opts ~min_iters:min_sessions (fun i ->
        outcomes :=
          session tr r ~host_seed:(host_seed i) ~index:i (cell i) :: !outcomes)
  in
  let outcomes = List.rev !outcomes in
  if not opts.trace then begin
    let walls_ms = List.map (fun o -> o.wall_s *. 1e3) outcomes in
    end_to_end r ~setup_s ~ops:loop.iters ~window_s:loop.window_s
      ~alloc_words:loop.sample_words ~alloc_ops:min_sessions
      ~peak_mb:loop.sample_peak_mb;
    host r "session_ms_p50" "ms" (percentile ~name:"session_ms" 50 walls_ms);
    host r "session_ms_p75" "ms" (percentile ~name:"session_ms" 75 walls_ms);
    (* a mean, not a median: a cell's virtual attach time is the same
       in every session of it, so a median would land on one cell *)
    virt r "attach_virt_ms_mean" "ms"
      (mean (List.map (fun o -> o.attach_virt_ns /. 1e6) (take min_sessions outcomes)))
  end
  else begin
    let layers = Layers.of_tracer tr in
    (* virtual figures come from the first [min_sessions] sessions
       only, so they repeat exactly for a seed *)
    let sampled (sp : Tracer.span) = sp.session < min_sessions in
    let layout_of (sp : Tracer.span) = abs_ksymtab (snd (cell sp.session)) in
    host r "hostos.host_create_ms" "ms" (Layers.wall_ms layers "hostos.host_create");
    host r "blockdev.disk_ms" "ms" (Layers.wall_ms layers "blockdev.disk");
    host r "blockdev.image_pack_ms" "ms" (Layers.wall_ms layers "blockdev.image_pack");
    host r "hypervisor.create_ms" "ms" (Layers.wall_ms layers "hypervisor.create");
    host r "hypervisor.boot_ms" "ms" (Layers.wall_ms layers "hypervisor.boot");
    host r "hypervisor.boot_mw" "Mwords" (Layers.minor_mwords layers "hypervisor.boot");
    virt r "hypervisor.boot_virt_us" "us"
      (Layers.virt_us_mean ~only:sampled layers "hypervisor.boot");
    host r "snapshot.capture_ms" "ms" (Layers.wall_ms layers "snapshot.capture");
    host r "snapshot.check_ms" "ms" (Layers.wall_ms layers "snapshot.check");
    host r "attach.wall_ms_p50" "ms" (Layers.wall_ms layers "attach");
    host r "attach.wall_ms.ksymtab-abs" "ms"
      (Layers.wall_ms ~only:layout_of layers "attach");
    host r "attach.wall_ms.ksymtab-prel32" "ms"
      (Layers.wall_ms ~only:(fun sp -> not (layout_of sp)) layers "attach");
    host r "attach.mw" "Mwords" (Layers.minor_mwords layers "attach");
    (* Stage, console and detach virtual times are the same for most
       cells, so they are given as shares of a varying whole: a stage's
       share of its attach, a layer's share of its session. The spans
       file holds the absolute times. *)
    let sample = List.filter (fun o -> o.stage_ns <> []) (take min_sessions outcomes) in
    List.iter
      (fun st ->
        virt r
          (Printf.sprintf "attach.stage.%s_virt_pct" st)
          "%"
          (mean
             (List.map
                (fun o -> 100. *. List.assoc st o.stage_ns /. o.attach_virt_ns)
                sample)))
      stages;
    let session_virt = Array.of_list (List.map (fun o -> o.session_virt_ns) outcomes) in
    let share layer =
      mean
        (List.map
           (fun ((sp : Tracer.span), _, v) -> 100. *. v /. session_virt.(sp.session))
           (Layers.select ~only:sampled layers layer))
    in
    let counter name = Layers.counter_mean ~only:sampled layers "attach" name in
    virt r "attach.ptrace_stops" "count" (counter "ptrace_stops");
    virt r "attach.syscalls" "count" (counter "syscalls");
    virt r "attach.context_switches" "count" (counter "context_switches");
    virt r "attach.remote_copy_kib" "KiB" (counter "bytes_copied_remote" /. 1024.);
    host r "console.roundtrip_us" "us" (Layers.wall_ms layers "console" *. 1e3);
    virt r "console.virt_pct" "%" (share "console");
    host r "detach.ms" "ms" (Layers.wall_ms layers "detach");
    virt r "detach.virt_pct" "%" (share "detach");
    let total_wall = List.fold_left (fun a o -> a +. o.wall_s) 0. outcomes in
    let total_events = List.fold_left (fun a o -> a + o.events) 0 outcomes in
    host r "sim.host_ns_per_event" "ns"
      (total_wall *. 1e9 /. float_of_int (max 1 total_events));
    per_layer r tr layers ~ops:loop.iters
      ~virt_ns:(List.fold_left (fun a o -> a +. o.session_virt_ns) 0. outcomes)
      ~run_wall:loop.window_s
  end;
  tr

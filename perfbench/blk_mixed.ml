(* blk-mixed: a closed loop with one client over one guest that is
   attached during set-up. The client sends a seeded request stream to
   vmsh-blk: 4, 64 and 256 KiB requests at random offsets, 70 % reads
   and 30 % writes, with every written range read back once, and every
   read verified against what was written. Each
   vmsh-blk read is repeated on qemu-blk, the guest's own disk, as the
   reference. Boot, attach and snapshots happen only in set-up, so this
   loads the virtio queue, Hyp_mem remote copies and device dispatch. *)

open Common
module Vmm = Hypervisor.Vmm
module Profile = Hypervisor.Profile
module KV = Linux_guest.Kernel_version
module Blk = Virtio.Blk.Driver

let block = 4096
let sizes = [| 4096; 65536; 262144 |]
let size_names = [| "4k"; "64k"; "256k" |]

(* Free blocks in the tools image that the stream writes into. *)
let region_blocks = 4096
let chunk = 50

(* The first [min_requests] stream entries are the virtual-clock sample
   (about half a run's). At half this size the share of 256 KiB writes
   moved the mean write latency by 4 % (quartile spread) between seeds. *)
let min_requests = 24000

type env = {
  h : H.Host.t;
  vmm : Vmm.t;
  vdrv : Blk.t;
  qdrv : Blk.t;
  disk_copy : Bytes.t;  (** qemu-blk's disk at set-up: the read reference *)
  first_sector : int;  (** of the vmsh-blk region *)
  shadow : Bytes.t;  (** what the vmsh-blk region must hold *)
  qemu_blocks : int;
}

let setup ~seed =
  let h = H.Host.create ~seed:(seed * 10_007) () in
  let disk = make_disk h ~blocks:4096 ~name:"blk" in
  let vmm = Vmm.create h ~profile:Profile.qemu ~disk () in
  let g = Vmm.boot vmm ~version:KV.V5_10 in
  let image = tools_image ~extra_blocks:region_blocks h in
  (match
     Vmsh.Attach.attach h ~hypervisor_pid:(Vmm.pid vmm) ~fs_image:image
       ~pump:(fun () -> Vmm.run_until_idle vmm)
       ()
   with
  | Ok _ -> ()
  | Error e -> failwith ("attach: " ^ Vmsh.Vmsh_error.to_string e));
  let vdrv =
    match Linux_guest.Guest.vmsh_blk g with
    | Some d -> d
    | None -> failwith "vmsh-blk did not come up"
  in
  let qdrv = Linux_guest.Guest.boot_blk_exn g in
  let cap_blocks = Blk.capacity_sectors vdrv / Virtio.Blk.sectors_per_block in
  let first_block = cap_blocks - region_blocks in
  {
    h;
    vmm;
    vdrv;
    qdrv;
    disk_copy =
      H.Mem.read_bytes (Blockdev.Backend.mem disk) 0
        ((Blockdev.Backend.dev disk).Blockdev.Dev.blocks * block);
    first_sector = first_block * Virtio.Blk.sectors_per_block;
    shadow =
      H.Mem.read_bytes (Blockdev.Backend.mem image) (first_block * block)
        (region_blocks * block);
    qemu_blocks = Blk.capacity_sectors qdrv / Virtio.Blk.sectors_per_block;
  }

type op = Read of int * int | Write of int * int  (** block offset, size class *)

(* The seeded request stream. The three sizes are equally likely: no
   measured traffic fixes their mix. A written range waits in [pending]
   and the next read reads it back, so read-backs are as many as writes
   and the rest of the reads land at fresh random offsets. *)
let stream ~seed =
  let rng = Random.State.make [| seed; 0xb10c |] in
  let pending = Queue.create () in
  fun () ->
    let cls = Random.State.int rng (Array.length sizes) in
    let at () = Random.State.int rng (region_blocks - (sizes.(cls) / block) + 1) in
    if Random.State.int rng 10 < 3 then begin
      let off = at () in
      Queue.push (off, cls) pending;
      Write (off, cls)
    end
    else if not (Queue.is_empty pending) then
      let off, cls = Queue.pop pending in
      Read (off, cls)
    else Read (at (), cls)

(* One request's figures: the stream entry it serves, which device and
   op, its size class, and its virtual ns. *)
type sample = { entry : int; dev_op : int; cls : int; virt_ns : float }

let vmsh_read = 0
let vmsh_write = 1
let qemu_read = 2

(* Fill [buf] for write [i]: a byte per write, each 512-byte sector
   stamped with the write and sector number so misplaced data cannot
   pass. *)
let fill_payload buf i =
  Bytes.fill buf 0 (Bytes.length buf) (Char.chr (i land 0xff));
  for s = 0 to (Bytes.length buf / 512) - 1 do
    Bytes.set_int64_le buf (s * 512) (Int64.of_int ((i lsl 16) lor s))
  done

(* Does [got] equal the [Bytes.length got] bytes of [src] from [off]?
   [buf] (as long as [got]) is reused across calls, so the check
   allocates nothing. *)
let same ~buf got src off =
  Bytes.blit src off buf 0 (Bytes.length buf);
  Bytes.equal got buf

let run opts r =
  let tr = Tracer.create ~enabled:opts.trace in
  let setup_s, env = timed_setup ~k:5 (fun () -> setup ~seed:opts.seed) in
  let clock = env.h.H.Host.clock in
  let next = stream ~seed:opts.seed in
  let samples = ref [] and count = ref 0 in
  let bufs = Array.map Bytes.create sizes
  and cmp_bufs = Array.map Bytes.create sizes in
  let timed entry dev_op cls layer f =
    let v0 = Clock.now_ns clock in
    let x = Tracer.span tr ~clock layer f in
    if entry < min_requests then
      samples :=
        { entry; dev_op; cls; virt_ns = Clock.now_ns clock -. v0 } :: !samples;
    incr count;
    x
  in
  let request i =
    match next () with
    | Write (off, cls) ->
        let len = sizes.(cls) in
        let data = bufs.(cls) in
        fill_payload data i;
        timed i vmsh_write cls "vmsh_blk.write" (fun () ->
            Blk.write env.vdrv
              ~sector:(env.first_sector + (off * Virtio.Blk.sectors_per_block))
              data);
        Bytes.blit data 0 env.shadow (off * block) len;
        check r true (fun () -> "")
    | Read (off, cls) ->
        let len = sizes.(cls) in
        let got =
          timed i vmsh_read cls ("vmsh_blk.read." ^ size_names.(cls)) (fun () ->
              Blk.read env.vdrv
                ~sector:(env.first_sector + (off * Virtio.Blk.sectors_per_block))
                ~len)
        in
        check r
          (same ~buf:cmp_bufs.(cls) got env.shadow (off * block))
          (fun () -> Printf.sprintf "vmsh-blk read %d: data differs" i);
        let qoff = off mod (env.qemu_blocks - (len / block) + 1) in
        let qgot =
          timed i qemu_read cls "qemu_blk.read" (fun () ->
              Blk.read env.qdrv ~sector:(qoff * Virtio.Blk.sectors_per_block) ~len)
        in
        check r
          (same ~buf:cmp_bufs.(cls) qgot env.disk_copy (qoff * block))
          (fun () -> Printf.sprintf "qemu-blk read %d: data differs" i)
  in
  let c0 = Clock.snapshot clock and v0 = Clock.now_ns clock in
  let loop =
    closed_loop opts ~min_iters:(min_requests / chunk) (fun c ->
        Tracer.set_session tr c;
        Tracer.span tr ~clock "session" (fun () ->
            Vmm.in_guest env.vmm (fun () ->
                for i = c * chunk to ((c + 1) * chunk) - 1 do
                  request i
                done)))
  in
  let entries = loop.iters * chunk in
  if not opts.trace then begin
    let sample = !samples in
    let virt_us op =
      mean
        (List.filter_map
           (fun s -> if s.dev_op = op then Some (s.virt_ns /. 1e3) else None)
           sample)
    in
    let vmsh = List.filter (fun s -> s.dev_op <> qemu_read) sample in
    end_to_end r ~setup_s ~ops:entries ~window_s:loop.window_s
      ~alloc_words:loop.sample_words ~alloc_ops:min_requests
      ~peak_mb:loop.sample_peak_mb;
    host r "blk_requests_per_s" "1/s" (float_of_int !count /. loop.window_s);
    (* means, not percentiles: at one request in flight a request's
       virtual latency is a function of its size alone, so every
       percentile is one size class's constant *)
    virt r "blk_virt_read_us_mean" "us" (virt_us vmsh_read);
    virt r "blk_virt_write_us_mean" "us" (virt_us vmsh_write);
    virt r "blk_virt_mb_s" "MB/s"
      (float_of_int (List.fold_left (fun a s -> a + sizes.(s.cls)) 0 vmsh)
      /. List.fold_left (fun a s -> a +. s.virt_ns) 0. vmsh
      *. 1e3)
  end
  else begin
    let layers = Layers.of_tracer tr in
    Array.iter
      (fun n ->
        host r ("vmsh_blk.read_us." ^ n) "us"
          (Layers.wall_ms layers ("vmsh_blk.read." ^ n) *. 1e3))
      size_names;
    host r "vmsh_blk.write_us" "us" (Layers.wall_ms layers "vmsh_blk.write" *. 1e3);
    let sampled (sp : Tracer.span) = sp.session < min_requests / chunk in
    Array.iter
      (fun n ->
        virt r ("vmsh_blk.read_virt_us." ^ n) "us"
          (Layers.virt_us_mean ~only:sampled layers ("vmsh_blk.read." ^ n)))
      size_names;
    let vmsh =
      List.filter
        (fun ((sp : Tracer.span), _, _) ->
          sampled sp
          && String.length sp.layer > 9
          && String.sub sp.layer 0 9 = "vmsh_blk.")
        layers
    in
    let per_req f = mean (List.map (fun (sp, _, _) -> f sp) vmsh) in
    host r "vmsh_blk.kw_per_req" "kwords" (per_req (fun sp -> sp.Tracer.mw /. 1e3));
    List.iter
      (fun c ->
        virt r
          (Printf.sprintf "vmsh_blk.%s_per_req" c)
          "count"
          (per_req (fun sp -> float_of_int (Tracer.counter sp c))))
      [ "syscalls"; "context_switches"; "socket_msgs"; "device_ops" ];
    virt r "vmsh_blk.remote_copy_kib_per_req" "KiB"
      (per_req (fun sp -> float_of_int (Tracer.counter sp "bytes_copied_remote") /. 1024.));
    virt r "qemu_blk.read_virt_us_mean" "us"
      (Layers.virt_us_mean ~only:sampled layers "qemu_blk.read");
    host r "qemu_blk.read_us_p50" "us" (Layers.wall_ms layers "qemu_blk.read" *. 1e3);
    host r "sim.host_ns_per_event" "ns"
      (loop.window_s *. 1e9
      /. float_of_int (max 1 (Common.events (Clock.snapshot clock) - Common.events c0)));
    per_layer r tr layers ~ops:entries ~virt_ns:(Clock.now_ns clock -. v0)
      ~run_wall:loop.window_s
  end;
  tr

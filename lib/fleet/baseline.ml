(* Baked baseline images and copy-on-write VM forking.

   [bake_with] boots one machine to the attach-ready point (devices probed,
   root mounted, console answering) and freezes everything a clone
   needs: the guest RAM pages (the serialized page tables live inside
   them), the VMM's disk bounce buffer, the root disk blocks, the
   encoded kernel image, and the boot RNG stream. [fork] then stands up
   a session in microseconds of virtual time: the frozen regions are
   mapped as per-4KiB-page CoW overlays (reads fall through to the
   shared baseline; the first diverging write copies one page), and the
   boot is *replayed* deterministically inside a clock-restore section —
   same RNG stream, same prebuilt kernel image, so every write the
   replay performs is byte-identical to the frozen content and the CoW
   layer absorbs it silently, copying nothing. What the session is
   actually charged is the explicit linked-clone cost: provisioning its
   divergent disk blocks (per-clone /etc/hostname) plus the handful of
   syscalls a real fork spends mapping shared memory and re-creating
   the KVM fds. *)

module H = Hostos
module Sfs = Blockdev.Simplefs
module Vmm = Hypervisor.Vmm
module Profile = Hypervisor.Profile
module KV = Linux_guest.Kernel_version
module E = Vmsh.Vmsh_error

type image = {
  img_profile : string;  (** {!Hypervisor.Profile.prof_name} baked under *)
  img_version : KV.t;
  img_build_id : string;  (** guest build id the frozen RAM embeds *)
  img_ram_mb : int;
  img_hostname : string;  (** hostname baked into the frozen disk *)
  img_boot_rng : H.Rng.t;  (** pristine boot stream (pre-KASLR draw) *)
  img_kernel : bytes;  (** encoded kernel image — shared, never copied *)
  img_ram : H.Mem.frozen;  (** frozen guest RAM *)
  img_databuf : H.Mem.frozen;  (** frozen VMM disk bounce buffer *)
  img_disk : H.Mem.frozen;  (** frozen root disk blocks *)
  img_digest : string;  (** {!Vmsh.Snapshot.digest} at the freeze point *)
}

type forked = {
  fk_vmm : Vmm.t;
  fk_guest : Linux_guest.Guest.t;
  fk_fork_ns : float;
}

let build_id version =
  (* must mirror the guest's own derivation: the id baked into the
     frozen RAM is what symbol analysis reads back out at attach *)
  "VMSHBID0" ^ Digest.to_hex (Digest.string (KV.banner version))

let profile_name img = img.img_profile
let version img = img.img_version
let digest img = img.img_digest
let hostname img = img.img_hostname

(* [disk] is the cold sessions' own provisioning, so a fork's disk
   differs from a cold boot's only in the hostname bytes. *)
let bake_with ~disk ?(seed = 0xba5e) ?(profile = Profile.qemu)
    ?(version = KV.V5_10) ?(hostname = "baseline") () =
  let host = H.Host.create ~seed () in
  let disk = disk host ~name:hostname in
  let disable_seccomp = profile.Profile.prof_name = "Firecracker" in
  let vmm = Vmm.create host ~profile ~disk ~disable_seccomp () in
  (* split the boot stream off the host RNG exactly as a cold boot
     would, but keep a pristine copy: forks replay from it *)
  let boot_rng = H.Rng.split host.H.Host.rng in
  let g = Vmm.boot ~boot_rng:(H.Rng.copy boot_rng) vmm ~version in
  let fs = Vmm.freeze_fork_state vmm in
  {
    img_profile = profile.Profile.prof_name;
    img_version = version;
    img_build_id = build_id version;
    img_ram_mb = H.Mem.frozen_length fs.Vmm.fs_ram / (1024 * 1024);
    img_hostname = hostname;
    img_boot_rng = boot_rng;
    img_kernel = Linux_guest.Guest.kernel_image g;
    img_ram = fs.Vmm.fs_ram;
    img_databuf = fs.Vmm.fs_databuf;
    img_disk = H.Mem.freeze (Blockdev.Backend.mem disk);
    img_digest = Vmsh.Snapshot.digest (Vmsh.Snapshot.capture (Vmm.kvm_vm vmm));
  }

let validate img ~profile ~version =
  if profile.Profile.prof_name <> img.img_profile then
    Error
      (E.Baseline_stale
         (Printf.sprintf "baked for profile %s, session wants %s"
            img.img_profile profile.Profile.prof_name))
  else if not (KV.equal version img.img_version) then
    Error
      (E.Baseline_stale
         (Printf.sprintf "baked for kernel %s, session wants %s"
            (KV.to_string img.img_version) (KV.to_string version)))
  else if img.img_build_id <> build_id img.img_version then
    Error
      (E.Baseline_stale
         (Printf.sprintf "kernel build id mismatch (image %s, current %s)"
            img.img_build_id (build_id img.img_version)))
  else Ok ()

let check_regions img =
  let ram = H.Mem.frozen_length img.img_ram
  and databuf = H.Mem.frozen_length img.img_databuf
  and disk = H.Mem.frozen_length img.img_disk in
  if ram <> img.img_ram_mb * 1024 * 1024 then
    Error
      (E.Overlay_fault
         (Printf.sprintf "frozen RAM is %d bytes, header says %d MiB" ram
            img.img_ram_mb))
  else if databuf <> 256 * 1024 then
    Error
      (E.Overlay_fault
         (Printf.sprintf "frozen bounce buffer is %d bytes, expected 256 KiB"
            databuf))
  else if disk = 0 || disk mod H.Mem.page_size <> 0 then
    Error
      (E.Overlay_fault
         (Printf.sprintf "frozen disk is %d bytes, not block aligned" disk))
  else Ok ()

(* The virtual cost a real linked-clone fork pays that the boot replay
   does not model: clone(2), three MAP_PRIVATE mmaps of the shared
   regions, /dev/kvm open, CREATE_VM, SET_USER_MEMORY_REGION,
   CREATE_VCPU + its run-page mmap, SET_REGS/SREGS, and the
   irqfd/ioeventfd wiring — all O(1) in guest size. *)
let charge_fork_cost clock =
  for _ = 1 to 14 do
    H.Clock.syscall clock
  done;
  H.Clock.context_switch clock

let ( let* ) = Result.bind

let fork img ~host ~profile ~name =
  let* () = validate img ~profile ~version:img.img_version in
  let* () = check_regions img in
  let clock = host.H.Host.clock in
  let t0 = H.Clock.now_ns clock in
  (* the clone's disk: a CoW view over the frozen blocks. Only its
     divergent provisioning (the per-clone hostname) copies blocks. *)
  let disk = Blockdev.Backend.of_mem ~clock (H.Mem.cow img.img_disk) in
  let* () =
    if name = img.img_hostname then Ok ()
    else
      let* fs =
        match Sfs.mount (Blockdev.Backend.dev disk) with
        | Ok fs -> Ok fs
        | Error e ->
            Error
              (E.Overlay_fault
                 ("baseline disk does not mount: " ^ H.Errno.show e))
      in
      let* () =
        match
          Sfs.write_file fs "/etc/hostname" (Bytes.of_string (name ^ "\n"))
        with
        | Ok () -> Ok ()
        | Error e ->
            Error
              (E.Overlay_fault ("clone provisioning failed: " ^ H.Errno.show e))
      in
      Sfs.sync fs;
      Ok ()
  in
  charge_fork_cost clock;
  (* Deterministic boot replay at zero virtual cost: the clone never
     boots — it is cloned. Same RNG stream and prebuilt image mean the
     replay's writes match the frozen baseline byte for byte, so the
     CoW layer absorbs them as silent writes; afterwards the clock and
     its mechanism counters are rewound to the fork instant. *)
  let disable_seccomp = profile.Profile.prof_name = "Firecracker" in
  let vmm, guest =
    H.Clock.restore_section clock (fun () ->
        let vmm =
          Vmm.create host ~profile ~disk ~ram_mb:img.img_ram_mb
            ~disable_seccomp
            ~fork:{ Vmm.fs_ram = img.img_ram; fs_databuf = img.img_databuf }
            ()
        in
        let g =
          Vmm.boot
            ~boot_rng:(H.Rng.copy img.img_boot_rng)
            ~prebuilt_image:img.img_kernel vmm ~version:img.img_version
        in
        (vmm, g))
  in
  (* the replay rebuilt the page-table arena byte-identically over its
     zeroed view; hand those pages back to the shared baseline so the
     clone's resident footprint is its true divergence *)
  ignore
    (H.Mem.Addr_space.cow_reclaim_all (Vmm.proc vmm).H.Proc.aspace : int);
  ignore (H.Mem.cow_reclaim (Blockdev.Backend.mem disk) : int);
  Ok
    {
      fk_vmm = vmm;
      fk_guest = guest;
      fk_fork_ns = H.Clock.now_ns clock -. t0;
    }

module Debug = struct
  let ram img = H.Mem.frozen_bytes img.img_ram
  let disk img = H.Mem.frozen_bytes img.img_disk
end

let zero_stats =
  {
    H.Mem.cs_pages_total = 0;
    cs_pages_copied = 0;
    cs_silent_writes = 0;
    cs_resident_bytes = 0;
  }

let add_stats a b =
  {
    H.Mem.cs_pages_total = a.H.Mem.cs_pages_total + b.H.Mem.cs_pages_total;
    cs_pages_copied = a.cs_pages_copied + b.cs_pages_copied;
    cs_silent_writes = a.cs_silent_writes + b.cs_silent_writes;
    cs_resident_bytes = a.cs_resident_bytes + b.cs_resident_bytes;
  }

(* Overlay occupancy of a live fork: every CoW backing in the VMM
   process (guest RAM + bounce buffer) plus the disk overlay. *)
let resident f =
  let p = Vmm.proc f.fk_vmm in
  let proc_stats = H.Mem.Addr_space.cow_totals p.H.Proc.aspace in
  let disk_stats =
    match H.Mem.cow_stats (Blockdev.Backend.mem (Vmm.disk f.fk_vmm)) with
    | Some s -> s
    | None -> zero_stats
  in
  add_stats proc_stats disk_stats

(* On-disk format: a magic line, then a Marshal'd [stored] record with
   the big regions encoded sparsely (only non-zero 4 KiB pages). The
   kernel version travels as its string form so a load under a changed
   variant layout degrades into a typed Baseline_stale, not a segfault. *)

let magic = "VMSHBASE1\n"

type stored = {
  st_profile : string;
  st_version : string;
  st_build_id : string;
  st_ram_mb : int;
  st_hostname : string;
  st_boot_rng : H.Rng.t;
  st_kernel : bytes;
  st_ram_len : int;
  st_ram_pages : (int * bytes) list;
  st_databuf : bytes;
  st_disk_len : int;
  st_disk_pages : (int * bytes) list;
  st_digest : string;
}

let sparse b =
  let len = Bytes.length b in
  let ps = H.Mem.page_size in
  let zero = Bytes.make ps '\000' in
  let rec go off acc =
    if off >= len then List.rev acc
    else
      let n = min ps (len - off) in
      let acc =
        if H.Mem.region_equal b off zero 0 n then acc
        else (off / ps, Bytes.sub b off n) :: acc
      in
      go (off + ps) acc
  in
  go 0 []

let densify len pages =
  let b = Bytes.make len '\000' in
  List.iter
    (fun (idx, page) ->
      let off = idx * H.Mem.page_size in
      Bytes.blit page 0 b off (Bytes.length page))
    pages;
  b

let save img ~path =
  let st =
    {
      st_profile = img.img_profile;
      st_version = KV.to_string img.img_version;
      st_build_id = img.img_build_id;
      st_ram_mb = img.img_ram_mb;
      st_hostname = img.img_hostname;
      st_boot_rng = img.img_boot_rng;
      st_kernel = img.img_kernel;
      st_ram_len = H.Mem.frozen_length img.img_ram;
      st_ram_pages = sparse (H.Mem.frozen_bytes img.img_ram);
      st_databuf = H.Mem.frozen_bytes img.img_databuf;
      st_disk_len = H.Mem.frozen_length img.img_disk;
      st_disk_pages = sparse (H.Mem.frozen_bytes img.img_disk);
      st_digest = img.img_digest;
    }
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc magic;
      Marshal.to_channel oc st [])

let load ~path =
  match open_in_bin path with
  | exception Sys_error e -> Error (E.Baseline_stale ("cannot open: " ^ e))
  | ic -> (
      let r =
        try
          let m = really_input_string ic (String.length magic) in
          if m <> magic then
            Error (E.Baseline_stale ("bad magic in " ^ path))
          else Ok (Marshal.from_channel ic : stored)
        with End_of_file | Failure _ ->
          Error (E.Baseline_stale ("truncated baseline image: " ^ path))
      in
      close_in_noerr ic;
      let* st = r in
      let* ver =
        match KV.of_string st.st_version with
        | Some v -> Ok v
        | None ->
            Error
              (E.Baseline_stale ("unknown kernel version: " ^ st.st_version))
      in
      let img =
        {
          img_profile = st.st_profile;
          img_version = ver;
          img_build_id = st.st_build_id;
          img_ram_mb = st.st_ram_mb;
          img_hostname = st.st_hostname;
          img_boot_rng = st.st_boot_rng;
          img_kernel = st.st_kernel;
          img_ram =
            H.Mem.frozen_of_bytes (densify st.st_ram_len st.st_ram_pages);
          img_databuf = H.Mem.frozen_of_bytes st.st_databuf;
          img_disk =
            H.Mem.frozen_of_bytes (densify st.st_disk_len st.st_disk_pages);
          img_digest = st.st_digest;
        }
      in
      let* () = check_regions img in
      Ok img)

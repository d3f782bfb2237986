(* Unit and property tests for the simulated host OS substrate. *)

module H = Hostos
open H

let check = Alcotest.check
let cbool = Alcotest.bool
let cint = Alcotest.int
let cstr = Alcotest.string

let errno : Errno.t Alcotest.testable = Alcotest.testable Errno.pp Errno.equal

let result_int = Alcotest.result cint errno

(* --- Rng --- *)

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    check cint "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_bounds () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check cbool "in range" true (v >= 0 && v < 17)
  done

let test_rng_split_independent () =
  let a = Rng.create ~seed:9 in
  let b = Rng.split a in
  check cbool "split streams differ" true (Rng.next a <> Rng.next b)

(* --- Clock --- *)

let test_clock_charges () =
  let c = Clock.create () in
  check cbool "starts at zero" true (Clock.now_ns c = 0.0);
  Clock.syscall c;
  Clock.context_switch c;
  let counters = Clock.counters c in
  check cint "one syscall" 1 counters.Clock.syscalls;
  check cint "one ctx switch" 1 counters.Clock.context_switches;
  check cbool "time advanced" true (Clock.now_ns c > 0.0)

let test_clock_copy_scales () =
  let c = Clock.create () in
  Clock.copy_bytes c 1000;
  let t1 = Clock.now_ns c in
  Clock.copy_bytes c 10000;
  let t2 = Clock.now_ns c -. t1 in
  check cbool "10x bytes cost ~10x" true (t2 > 9.0 *. t1 && t2 < 11.0 *. t1)

let test_clock_snapshot_independent () =
  let c = Clock.create () in
  Clock.syscall c;
  let snap = Clock.snapshot c in
  Clock.syscall c;
  check cint "snapshot frozen" 1 snap.Clock.syscalls;
  check cint "live counter moved" 2 (Clock.counters c).Clock.syscalls

(* --- Mem --- *)

let test_mem_u64_roundtrip () =
  let m = Mem.create 64 in
  Mem.write_u64 m 8 0x1234_5678_9abc;
  check cint "u64 roundtrip" 0x1234_5678_9abc (Mem.read_u64 m 8)

let test_mem_u64_rejects_63bit () =
  let m = Mem.create 16 in
  Bytes.set_int64_le (Mem.read_bytes m 0 16 |> fun _ -> Bytes.create 8) 0 0L;
  (* write a raw value with the top bits set, then read *)
  Mem.write_bytes m 0 (Bytes.init 8 (fun _ -> '\xff'));
  Alcotest.check_raises "rejects >62-bit" (Invalid_argument "x") (fun () ->
      try ignore (Mem.read_u64 m 0)
      with Invalid_argument _ -> raise (Invalid_argument "x"))

let test_mem_cstr () =
  let m = Mem.create 32 in
  Mem.write_cstr m 4 "hello";
  check (Alcotest.option cstr) "cstr" (Some "hello") (Mem.read_cstr m 4 ~max:16);
  check (Alcotest.option cstr) "no terminator" None
    (Mem.read_cstr m 4 ~max:3)

let test_aspace_mapping () =
  let open Mem.Addr_space in
  let sp = create () in
  let buf = Mem.create 4096 in
  map sp { base = 0x1000; len = 4096; backing = buf; backing_off = 0; tag = "a" };
  Mem.write_u64 buf 16 77;
  check cint "read through mapping" 77 (read_u64 sp 0x1010);
  write_u64 sp 0x1018 99;
  check cint "write through mapping" 99 (Mem.read_u64 buf 24)

let test_aspace_overlap_rejected () =
  let open Mem.Addr_space in
  let sp = create () in
  let buf = Mem.create 4096 in
  map sp { base = 0x1000; len = 4096; backing = buf; backing_off = 0; tag = "a" };
  Alcotest.check_raises "overlap" (Invalid_argument "x") (fun () ->
      try
        map sp
          { base = 0x1800; len = 4096; backing = buf; backing_off = 0; tag = "b" }
      with Invalid_argument _ -> raise (Invalid_argument "x"))

let test_aspace_find_free () =
  let open Mem.Addr_space in
  let sp = create () in
  let buf = Mem.create 4096 in
  map sp { base = 0x1000; len = 4096; backing = buf; backing_off = 0; tag = "a" };
  let free = find_free sp ~hint:0x1000 ~len:4096 in
  check cbool "free range does not overlap" true (free >= 0x2000)

let test_aspace_cross_mapping_read () =
  let open Mem.Addr_space in
  let sp = create () in
  let a = Mem.create 4096 and b = Mem.create 4096 in
  map sp { base = 0x1000; len = 4096; backing = a; backing_off = 0; tag = "a" };
  map sp { base = 0x2000; len = 4096; backing = b; backing_off = 0; tag = "b" };
  Mem.write_u8 a 4095 0xaa;
  Mem.write_u8 b 0 0xbb;
  let data = read sp 0x1fff 2 in
  check cint "byte from a" 0xaa (Char.code (Bytes.get data 0));
  check cint "byte from b" 0xbb (Char.code (Bytes.get data 1))

(* --- Mem digests and the word-wise compare --- *)

(* Mem.digest must agree with copy-and-hash on every backing and
   range, whether the page is served from the frozen base's memo, a
   private copy, or the copy-out fallback. *)
let test_mem_digest_matches_copy () =
  let ps = Mem.page_size in
  let len = (3 * ps) + 1000 in
  let base = Bytes.init len (fun i -> Char.chr (((i * 7) + (i / ps)) land 0xff)) in
  let pristine = Bytes.copy base in
  let agrees name m off n =
    check cstr name
      (Digest.to_hex (Digest.bytes (Mem.read_bytes m off n)))
      (Digest.to_hex (Mem.digest m off n))
  in
  let ranges name m =
    agrees (name ^ ": whole page") m 0 ps;
    agrees (name ^ ": short last page") m (3 * ps) 1000;
    agrees (name ^ ": unaligned") m 100 50;
    agrees (name ^ ": page-straddling") m (ps - 100) 200;
    agrees (name ^ ": aligned, longer than a page") m ps (ps + 10);
    agrees (name ^ ": empty") m ps 0;
    agrees (name ^ ": everything") m 0 len
  in
  ranges "flat" (Mem.of_bytes (Bytes.copy base));
  let frozen = Mem.frozen_of_bytes base in
  let a = Mem.cow frozen and b = Mem.cow frozen in
  ranges "shared" a;
  (* the memo is filled by b, then a diverges that page *)
  let page1 = Digest.bytes (Bytes.sub pristine ps ps) in
  check cstr "shared page digests its base bytes" (Digest.to_hex page1)
    (Digest.to_hex (Mem.digest b ps ps));
  Mem.write_u8 a (ps + 4) 0x55;
  check cint "the diverging write copied a page" 1
    (Option.get (Mem.cow_stats a)).Mem.cs_pages_copied;
  agrees "copied page" a ps ps;
  ranges "after a copy" a;
  check cbool "the copy digests differently" true
    (Mem.digest a ps ps <> Mem.digest b ps ps);
  check cstr "the sibling still digests the base" (Digest.to_hex page1)
    (Digest.to_hex (Mem.digest b ps ps));
  (* a silent write leaves the page shared and its digest unchanged *)
  Mem.write_bytes a (2 * ps) (Bytes.sub pristine (2 * ps) 100);
  check cint "silent write copied nothing" 1
    (Option.get (Mem.cow_stats a)).Mem.cs_pages_copied;
  agrees "page after a silent write" a (2 * ps) ps;
  check cstr "silent page equals the sibling's" (Mem.digest b (2 * ps) ps)
    (Mem.digest a (2 * ps) ps);
  (* writing the byte back and reclaiming re-shares the page *)
  Mem.write_u8 a (ps + 4) (Char.code (Bytes.get pristine (ps + 4)));
  check cint "re-converged page reclaimed" 1 (Mem.cow_reclaim a);
  agrees "page after reclaim" a ps ps;
  check cstr "reclaimed page is the base's again" (Digest.to_hex page1)
    (Digest.to_hex (Mem.digest a ps ps));
  (* the short last page, shared and then copied *)
  Mem.write_u8 a (len - 1) 0xff;
  agrees "copied short last page" a (3 * ps) 1000;
  check cbool "sibling's short last page unaffected" true
    (Mem.digest b (3 * ps) 1000
    = Digest.bytes (Bytes.sub pristine (3 * ps) 1000));
  ranges "two diverged pages" a;
  ranges "sibling" b;
  check cbool "the base was never written" true (Bytes.equal base pristine)

let test_mem_region_equal () =
  let src = Bytes.init 64 (fun i -> Char.chr (((i * 37) + 11) land 0xff)) in
  for len = 0 to 17 do
    for aoff = 0 to 3 do
      for boff = 0 to 3 do
        let dst = Bytes.make 64 '\000' in
        Bytes.blit src aoff dst boff len;
        let name what = Printf.sprintf "%s len=%d aoff=%d boff=%d" what len aoff boff in
        check cbool (name "equal") true (Mem.region_equal src aoff dst boff len);
        if len > 0 then begin
          let last = boff + len - 1 in
          Bytes.set dst last (Char.chr (Char.code (Bytes.get dst last) lxor 1));
          check cbool (name "last byte differs") false
            (Mem.region_equal src aoff dst boff len);
          check cbool (name "prefix before it still equal") true
            (Mem.region_equal src aoff dst boff (len - 1))
        end
      done
    done
  done;
  let a = Bytes.make 4096 'x' in
  let b = Bytes.copy a in
  Bytes.set b 4095 'y';
  check cbool "page differing in its last byte" false
    (Mem.region_equal a 0 b 0 4096);
  Bytes.set b 4095 'x';
  Bytes.set b 3 'y';
  check cbool "page differing inside its first word" false
    (Mem.region_equal a 0 b 0 4096);
  List.iter
    (fun (aoff, boff, len) ->
      match Mem.region_equal a aoff b boff len with
      | _ -> Alcotest.failf "out of bounds (%d, %d, %d) accepted" aoff boff len
      | exception Invalid_argument _ -> ())
    [ (4090, 0, 8); (0, 4090, 8); (-1, 0, 4); (0, 0, -1); (0, 0, 4097) ]

(* --- Chan --- *)

let test_chan_fifo () =
  let c = Chan.create () in
  ignore (Chan.write c (Bytes.of_string "abc"));
  ignore (Chan.write c (Bytes.of_string "def"));
  check cstr "fifo order" "abcd"
    (match Chan.read c 4 with Ok b -> Bytes.to_string b | Error _ -> "");
  check cstr "rest" "ef"
    (match Chan.read c 10 with Ok b -> Bytes.to_string b | Error _ -> "")

let test_chan_eagain_empty () =
  let c = Chan.create () in
  (match Chan.read c 1 with
  | Error Errno.EAGAIN -> ()
  | _ -> Alcotest.fail "expected EAGAIN");
  ignore (Chan.write c (Bytes.of_string "x"));
  ignore (Chan.read c 1);
  match Chan.read c 1 with
  | Error Errno.EAGAIN -> ()
  | _ -> Alcotest.fail "expected EAGAIN after drain"

let test_chan_capacity () =
  let c = Chan.create ~capacity:4 () in
  (match Chan.write c (Bytes.of_string "abcdef") with
  | Ok 4 -> ()
  | _ -> Alcotest.fail "partial write expected");
  match Chan.write c (Bytes.of_string "x") with
  | Error Errno.EAGAIN -> ()
  | _ -> Alcotest.fail "expected EAGAIN when full"

(* --- processes, fds, syscalls --- *)

let make_host () = Host.create ~seed:1 ()

let test_proc_fd_lifecycle () =
  let host = make_host () in
  let p = Host.spawn host ~name:"test" () in
  let fd = Proc.install_fd p (fun ~num -> Fd.eventfd ~num) in
  check cbool "fd num >= 3" true (fd.Fd.num >= 3);
  (match Proc.fd p fd.Fd.num with
  | Ok f -> check cstr "label" "anon_inode:[eventfd]" f.Fd.label
  | Error _ -> Alcotest.fail "fd lookup");
  (match Proc.close_fd p fd.Fd.num with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "close");
  match Proc.fd p fd.Fd.num with
  | Error Errno.EBADF -> ()
  | _ -> Alcotest.fail "expected EBADF after close"

let test_eventfd_semantics () =
  let host = make_host () in
  let p = Host.spawn host ~name:"t" () in
  let fd = Proc.install_fd p (fun ~num -> Fd.eventfd ~num) in
  Fd.eventfd_signal fd;
  Fd.eventfd_signal fd;
  check (Alcotest.option cint) "count" (Some 2) (Fd.eventfd_count fd);
  (match fd.Fd.ops.read ~len:8 with
  | Ok b -> check cint "drained value" 2 (Int64.to_int (Bytes.get_int64_le b 0))
  | Error _ -> Alcotest.fail "read");
  check (Alcotest.option cint) "drained" (Some 0) (Fd.eventfd_count fd)

let test_syscall_mmap_and_memory () =
  let host = make_host () in
  let p = Host.spawn host ~name:"t" () in
  let th = Proc.main_thread p in
  let base = Syscall.call host p th ~nr:Syscall.Nr.mmap ~args:[| 0; 8192 |] in
  check cbool "mmap returns address" true (base >= Syscall.mmap_area_base);
  Mem.Addr_space.write_u64 p.Proc.aspace base 4242;
  check cint "memory readable" 4242 (Mem.Addr_space.read_u64 p.Proc.aspace base)

let test_syscall_bad_fd () =
  let host = make_host () in
  let p = Host.spawn host ~name:"t" () in
  let th = Proc.main_thread p in
  let ret = Syscall.call host p th ~nr:Syscall.Nr.close ~args:[| 99 |] in
  check result_int "EBADF" (Error Errno.EBADF) (Errno.of_syscall_ret ret)

let test_syscall_seccomp_blocks () =
  let host = make_host () in
  let p = Host.spawn host ~name:"t" () in
  let th = Proc.main_thread p in
  th.Proc.seccomp <-
    Some { Proc.filter_name = "no-mmap"; allows = (fun nr -> nr <> Syscall.Nr.mmap) };
  let ret = Syscall.call host p th ~nr:Syscall.Nr.mmap ~args:[| 0; 4096 |] in
  check result_int "seccomp EPERM" (Error Errno.EPERM) (Errno.of_syscall_ret ret);
  let ret = Syscall.call host p th ~nr:Syscall.Nr.eventfd2 ~args:[||] in
  check cbool "other syscalls pass" true (ret >= 0)

let test_process_vm_rw () =
  let host = make_host () in
  let hyp = Host.spawn host ~name:"hyp" ~uid:1000 () in
  let vmsh = Host.spawn host ~name:"vmsh" ~uid:1000 () in
  let th = Proc.main_thread hyp in
  let base = Syscall.call host hyp th ~nr:Syscall.Nr.mmap ~args:[| 0; 4096 |] in
  (match
     Host.process_vm_write host ~caller:vmsh ~pid:hyp.Proc.pid ~addr:base
       (Bytes.of_string "sideload")
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "write");
  match
    Host.process_vm_read host ~caller:vmsh ~pid:hyp.Proc.pid ~addr:base ~len:8
  with
  | Ok b -> check cstr "roundtrip" "sideload" (Bytes.to_string b)
  | Error _ -> Alcotest.fail "read"

let test_process_vm_permissions () =
  let host = make_host () in
  let hyp = Host.spawn host ~name:"hyp" ~uid:1000 () in
  let other = Host.spawn host ~name:"other" ~uid:2000 () in
  (match
     Host.process_vm_read host ~caller:other ~pid:hyp.Proc.pid ~addr:0 ~len:8
   with
  | Error Errno.EPERM -> ()
  | _ -> Alcotest.fail "expected EPERM across uids");
  other.Proc.caps <- [ Proc.CAP_SYS_PTRACE ];
  match
    Host.process_vm_read host ~caller:other ~pid:hyp.Proc.pid ~addr:0 ~len:8
  with
  | Error Errno.EFAULT -> () (* allowed, but address unmapped *)
  | Error e -> Alcotest.failf "expected EFAULT, got %a" Errno.pp e
  | Ok _ -> Alcotest.fail "expected EFAULT"

(* --- /proc --- *)

let test_proc_fd_labels () =
  let host = make_host () in
  let p = Host.spawn host ~name:"qemu" () in
  let _e = Proc.install_fd p (fun ~num -> Fd.eventfd ~num) in
  let listing = Host.proc_fd_listing host ~pid:p.Proc.pid in
  check cbool "eventfd visible" true
    (List.exists (fun (_, l) -> l = "anon_inode:[eventfd]") listing);
  check cstr "comm" "qemu"
    (match Host.proc_comm host ~pid:p.Proc.pid with Ok s -> s | Error _ -> "")

(* --- ptrace --- *)

let test_ptrace_attach_permissions () =
  let host = make_host () in
  let hyp = Host.spawn host ~name:"hyp" ~uid:1000 () in
  let stranger = Host.spawn host ~name:"x" ~uid:2000 () in
  (match Ptrace.attach host ~tracer:stranger ~pid:hyp.Proc.pid with
  | Error Errno.EPERM -> ()
  | _ -> Alcotest.fail "expected EPERM");
  let vmsh = Host.spawn host ~name:"vmsh" ~uid:1000 () in
  match Ptrace.attach host ~tracer:vmsh ~pid:hyp.Proc.pid with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "attach failed: %a" Errno.pp e

let test_ptrace_double_attach_refused () =
  let host = make_host () in
  let hyp = Host.spawn host ~name:"hyp" () in
  let a = Host.spawn host ~name:"a" () in
  let b = Host.spawn host ~name:"b" () in
  (match Ptrace.attach host ~tracer:a ~pid:hyp.Proc.pid with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "first attach");
  match Ptrace.attach host ~tracer:b ~pid:hyp.Proc.pid with
  | Error Errno.EPERM -> ()
  | _ -> Alcotest.fail "second attach should fail"

let test_ptrace_inject_syscall () =
  let host = make_host () in
  let hyp = Host.spawn host ~name:"hyp" () in
  let vmsh = Host.spawn host ~name:"vmsh" () in
  let s =
    match Ptrace.attach host ~tracer:vmsh ~pid:hyp.Proc.pid with
    | Ok s -> s
    | Error _ -> Alcotest.fail "attach"
  in
  let before = X86.Regs.copy (Proc.main_thread hyp).Proc.regs in
  let ret =
    Ptrace.inject_syscall host s ~nr:Syscall.Nr.mmap ~args:[| 0; 4096 |] ()
  in
  (match ret with
  | Ok base ->
      check cbool "injected mmap worked" true (base > 0);
      (* The memory exists in the tracee's address space. *)
      check cbool "mapping is in tracee" true
        (Mem.Addr_space.resolve hyp.Proc.aspace base <> None)
  | Error e -> Alcotest.failf "inject: %a" Errno.pp e);
  let after = (Proc.main_thread hyp).Proc.regs in
  check cbool "registers restored" true (X86.Regs.equal before after)

let test_ptrace_inject_respects_seccomp () =
  let host = make_host () in
  let hyp = Host.spawn host ~name:"firecracker" () in
  (Proc.main_thread hyp).Proc.seccomp <-
    Some
      {
        Proc.filter_name = "firecracker-vcpu";
        allows = (fun nr -> nr = Syscall.Nr.ioctl || nr = Syscall.Nr.read);
      };
  let vmsh = Host.spawn host ~name:"vmsh" () in
  let s =
    match Ptrace.attach host ~tracer:vmsh ~pid:hyp.Proc.pid with
    | Ok s -> s
    | Error _ -> Alcotest.fail "attach"
  in
  match Ptrace.inject_syscall host s ~nr:Syscall.Nr.mmap ~args:[| 0; 4096 |] () with
  | Ok ret -> check result_int "EPERM" (Error Errno.EPERM) (Errno.of_syscall_ret ret)
  | Error e -> Alcotest.failf "inject transport failed: %a" Errno.pp e

let test_ptrace_hooks_fire_and_charge () =
  let host = make_host () in
  let hyp = Host.spawn host ~name:"hyp" () in
  let vmsh = Host.spawn host ~name:"vmsh" () in
  let s =
    match Ptrace.attach host ~tracer:vmsh ~pid:hyp.Proc.pid with
    | Ok s -> s
    | Error _ -> Alcotest.fail "attach"
  in
  let entries = ref 0 and exits = ref 0 in
  Ptrace.hook_syscalls host s
    ~on_entry:(fun _ -> incr entries)
    ~on_exit:(fun _ -> incr exits; Proc.Deliver);
  let th = Proc.main_thread hyp in
  let stops_before = (Clock.counters host.Host.clock).Clock.ptrace_stops in
  ignore (Syscall.call host hyp th ~nr:Syscall.Nr.eventfd2 ~args:[||]);
  check cint "entry hook fired" 1 !entries;
  check cint "exit hook fired" 1 !exits;
  let stops_after = (Clock.counters host.Host.clock).Clock.ptrace_stops in
  check cint "two ptrace stops charged" 2 (stops_after - stops_before);
  Ptrace.unhook_syscalls host s;
  ignore (Syscall.call host hyp th ~nr:Syscall.Nr.eventfd2 ~args:[||]);
  check cint "no hooks after unhook" 1 !entries

(* --- eBPF --- *)

let test_ebpf_requires_privilege () =
  let host = make_host () in
  let p = Host.spawn host ~name:"vmsh" () in
  let prog = { Ebpf.name = "memslots"; insn_count = 64; run = (fun _ -> ()) } in
  (match Host.attach_ebpf host ~caller:p ~hook:"kvm_vm_ioctl" prog with
  | Error Errno.EPERM -> ()
  | _ -> Alcotest.fail "expected EPERM without CAP_BPF");
  p.Proc.caps <- [ Proc.CAP_BPF ];
  match Host.attach_ebpf host ~caller:p ~hook:"kvm_vm_ioctl" prog with
  | Ok () -> ()
  | Error e -> Alcotest.failf "attach: %a" Errno.pp e

let test_ebpf_verifier_rejects_huge () =
  let host = make_host () in
  let p = Host.spawn host ~name:"vmsh" ~caps:[ Proc.CAP_BPF ] () in
  let prog = { Ebpf.name = "huge"; insn_count = 100000; run = (fun _ -> ()) } in
  match Host.attach_ebpf host ~caller:p ~hook:"h" prog with
  | Error Errno.EINVAL -> ()
  | _ -> Alcotest.fail "expected EINVAL"

let test_ebpf_fires_with_output () =
  let host = make_host () in
  let p = Host.spawn host ~name:"vmsh" ~caps:[ Proc.CAP_BPF ] () in
  let prog =
    {
      Ebpf.name = "echo";
      insn_count = 8;
      run = (fun ctx -> ctx.Ebpf.output <- Some (Bytes.of_string "hit"));
    }
  in
  (match Host.attach_ebpf host ~caller:p ~hook:"kvm_vm_ioctl" prog with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "attach");
  match Host.fire_ebpf host ~hook:"kvm_vm_ioctl" ~args:[| 1 |] Ebpf.No_data with
  | Some b -> check cstr "output" "hit" (Bytes.to_string b)
  | None -> Alcotest.fail "no output"

(* --- unix sockets with fd passing --- *)

let test_unix_socket_fd_passing () =
  let host = make_host () in
  let vmsh = Host.spawn host ~name:"vmsh" () in
  let hyp = Host.spawn host ~name:"hyp" () in
  let listener =
    match Host.unix_bind host vmsh ~path:"/tmp/vmsh.sock" with
    | Ok fd -> fd
    | Error _ -> Alcotest.fail "bind"
  in
  let hyp_sock =
    match Host.unix_connect host hyp ~path:"/tmp/vmsh.sock" with
    | Ok fd -> fd
    | Error _ -> Alcotest.fail "connect"
  in
  let vmsh_sock =
    match Host.unix_accept host vmsh ~listener with
    | Ok fd -> fd
    | Error _ -> Alcotest.fail "accept"
  in
  (* pass an eventfd from hypervisor to vmsh *)
  let ev = Proc.install_fd hyp (fun ~num -> Fd.eventfd ~num) in
  (match Host.send_fd host ~sock:hyp_sock ev with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "send_fd");
  match Host.recv_fd host vmsh ~sock:vmsh_sock with
  | Ok received ->
      Fd.eventfd_signal ev;
      check (Alcotest.option cint) "same open file description" (Some 1)
        (Fd.eventfd_count received)
  | Error _ -> Alcotest.fail "recv_fd"

let test_unix_socket_data () =
  let host = make_host () in
  let a = Host.spawn host ~name:"a" () in
  let b = Host.spawn host ~name:"b" () in
  ignore (Host.unix_bind host a ~path:"/s");
  let bsock =
    match Host.unix_connect host b ~path:"/s" with Ok f -> f | Error _ -> assert false
  in
  let listener =
    match Proc.fd a 3 with Ok f -> f | Error _ -> assert false
  in
  let asock =
    match Host.unix_accept host a ~listener with Ok f -> f | Error _ -> assert false
  in
  ignore (bsock.Fd.ops.write (Bytes.of_string "ping"));
  match asock.Fd.ops.read ~len:16 with
  | Ok data -> check cstr "data" "ping" (Bytes.to_string data)
  | Error _ -> Alcotest.fail "read"

(* --- property tests --- *)

let prop_chan_preserves_bytes =
  QCheck.Test.make ~name:"chan writes then reads preserve content" ~count:100
    QCheck.(list (string_of_size Gen.(int_bound 200)))
    (fun chunks ->
      let c = Chan.create ~capacity:max_int ()
      and expected = Buffer.create 64 in
      List.iter
        (fun s ->
          Buffer.add_string expected s;
          match Chan.write c (Bytes.of_string s) with
          | Ok n -> assert (n = String.length s)
          | Error _ -> assert (String.length s = 0))
        chunks;
      let got = Buffer.create 64 in
      let rec drain () =
        match Chan.read c 64 with
        | Ok b when Bytes.length b > 0 ->
            Buffer.add_bytes got b;
            drain ()
        | _ -> ()
      in
      drain ();
      Buffer.contents got = Buffer.contents expected)

let prop_aspace_find_free_never_overlaps =
  QCheck.Test.make ~name:"find_free result never overlaps mappings" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 10) (pair (int_bound 100) (int_range 1 16)))
    (fun specs ->
      let open Mem.Addr_space in
      let sp = create () in
      List.iter
        (fun (hint, pages) ->
          let len = pages * 4096 in
          let base = find_free sp ~hint:(hint * 4096) ~len in
          map sp
            { base; len; backing = Mem.create len; backing_off = 0; tag = "x" })
        specs;
      (* map never raised, so no overlap occurred *)
      true)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "hostos.rng",
      [
        t "determinism" test_rng_determinism;
        t "bounds" test_rng_bounds;
        t "split" test_rng_split_independent;
      ] );
    ( "hostos.clock",
      [
        t "charges" test_clock_charges;
        t "copy scales" test_clock_copy_scales;
        t "snapshot" test_clock_snapshot_independent;
      ] );
    ( "hostos.mem",
      [
        t "u64 roundtrip" test_mem_u64_roundtrip;
        t "u64 rejects 63-bit" test_mem_u64_rejects_63bit;
        t "cstr" test_mem_cstr;
        t "aspace mapping" test_aspace_mapping;
        t "aspace overlap rejected" test_aspace_overlap_rejected;
        t "aspace find_free" test_aspace_find_free;
        t "aspace cross-mapping read" test_aspace_cross_mapping_read;
        t "digest equals copy-and-hash" test_mem_digest_matches_copy;
        t "word-wise region_equal" test_mem_region_equal;
        QCheck_alcotest.to_alcotest prop_aspace_find_free_never_overlaps;
      ] );
    ( "hostos.chan",
      [
        t "fifo" test_chan_fifo;
        t "eagain" test_chan_eagain_empty;
        t "capacity" test_chan_capacity;
        QCheck_alcotest.to_alcotest prop_chan_preserves_bytes;
      ] );
    ( "hostos.proc",
      [
        t "fd lifecycle" test_proc_fd_lifecycle;
        t "eventfd" test_eventfd_semantics;
        t "fd labels" test_proc_fd_labels;
      ] );
    ( "hostos.syscall",
      [
        t "mmap" test_syscall_mmap_and_memory;
        t "bad fd" test_syscall_bad_fd;
        t "seccomp" test_syscall_seccomp_blocks;
        t "process_vm rw" test_process_vm_rw;
        t "process_vm perms" test_process_vm_permissions;
      ] );
    ( "hostos.ptrace",
      [
        t "attach perms" test_ptrace_attach_permissions;
        t "double attach" test_ptrace_double_attach_refused;
        t "inject syscall" test_ptrace_inject_syscall;
        t "inject respects seccomp" test_ptrace_inject_respects_seccomp;
        t "hooks fire and charge" test_ptrace_hooks_fire_and_charge;
      ] );
    ( "hostos.ebpf",
      [
        t "privilege" test_ebpf_requires_privilege;
        t "verifier" test_ebpf_verifier_rejects_huge;
        t "fires" test_ebpf_fires_with_output;
      ] );
    ( "hostos.unix",
      [
        t "fd passing" test_unix_socket_fd_passing;
        t "data" test_unix_socket_data;
      ] );
  ]

(* Flat buffers plus per-4KiB-page copy-on-write overlays.

   A CoW buffer shares an immutable [base] (the frozen RAM/disk of a
   baked baseline VM) and materialises a private page only on the
   first *diverging* write: writing bytes identical to the base is a
   "silent" write that leaves the page shared. Silent writes are what
   let a forked VM replay its deterministic boot against the overlay
   without copying anything — only state that genuinely differs from
   the baseline (a per-clone hostname block, attach-time injections)
   becomes resident.

   The frozen base also memoises one MD5 per page, filled on first
   use: every fork of an image shares it, so a snapshot of a clone
   hashes only the pages the clone copied. *)

let page_size = 4096

type frozen = {
  bytes : bytes;  (* never written while any view is alive *)
  mutable memo : Digest.t array;
      (* the MD5 of each page of [bytes], [""] until first asked for;
         [[||]] until the first digest of any page *)
}

type overlay = {
  base : frozen;  (* shared across every fork *)
  pages : (int, bytes) Hashtbl.t;  (* page index -> private copy *)
  mutable copied : int;
  mutable silent : int;
}

type backing = Flat of bytes | Cow of overlay

type t = { mutable backing : backing; len : int }

type cow_stats = {
  cs_pages_total : int;
  cs_pages_copied : int;
  cs_silent_writes : int;
  cs_resident_bytes : int;
}

let create len = { backing = Flat (Bytes.make len '\000'); len }
let of_bytes buf = { backing = Flat buf; len = Bytes.length buf }

let frozen_of_bytes bytes = { bytes; memo = [||] }
let frozen_bytes f = f.bytes
let frozen_length f = Bytes.length f.bytes

let cow base =
  {
    backing =
      Cow { base; pages = Hashtbl.create 64; copied = 0; silent = 0 };
    len = Bytes.length base.bytes;
  }

let length t = t.len
let is_cow t = match t.backing with Cow _ -> true | Flat _ -> false

let cow_stats t =
  match t.backing with
  | Flat _ -> None
  | Cow c ->
      Some
        {
          cs_pages_total = (t.len + page_size - 1) / page_size;
          cs_pages_copied = c.copied;
          cs_silent_writes = c.silent;
          cs_resident_bytes = c.copied * page_size;
        }

(* Page [pi] of a CoW buffer as (buffer, offset of the page's first
   byte inside that buffer): the private copy when one exists, else a
   window into the shared base. *)
let cow_page c pi =
  match Hashtbl.find_opt c.pages pi with
  | Some p -> (p, 0)
  | None -> (c.base.bytes, pi * page_size)

let cow_page_len t pi = min page_size (t.len - (pi * page_size))

(* Private copy of page [pi], materialising it from the base first if
   needed (the caller has already decided the write diverges). *)
let cow_page_rw t c pi =
  match Hashtbl.find_opt c.pages pi with
  | Some p -> p
  | None ->
      let p = Bytes.sub c.base.bytes (pi * page_size) (cow_page_len t pi) in
      Hashtbl.add c.pages pi p;
      c.copied <- c.copied + 1;
      p

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"

(* [region_equal]'s loops: 32 bytes per step, then 8, then the byte
   tail. Top-level, so a call allocates no closures. *)
let rec eq_tail a aoff b boff len i =
  i >= len
  || Bytes.unsafe_get a (aoff + i) = Bytes.unsafe_get b (boff + i)
     && eq_tail a aoff b boff len (i + 1)

let rec eq_words a aoff b boff len i =
  if i > len - 8 then eq_tail a aoff b boff len i
  else
    (get64u a (aoff + i) : int64) = get64u b (boff + i)
    && eq_words a aoff b boff len (i + 8)

let rec eq_blocks a aoff b boff len i =
  if i > len - 32 then eq_words a aoff b boff len i
  else
    let x = aoff + i and y = boff + i in
    (get64u a x : int64) = get64u b y
    && (get64u a (x + 8) : int64) = get64u b (y + 8)
    && (get64u a (x + 16) : int64) = get64u b (y + 16)
    && (get64u a (x + 24) : int64) = get64u b (y + 24)
    && eq_blocks a aoff b boff len (i + 32)

(* Every silent write of a fork's boot replay and every reclaimed page
   is compared here, so it reads words, not bytes. *)
let region_equal a aoff b boff len =
  if
    len < 0 || aoff < 0 || boff < 0
    || aoff > Bytes.length a - len
    || boff > Bytes.length b - len
  then invalid_arg "Mem.region_equal";
  eq_blocks a aoff b boff len 0

(* Write [len] bytes of [src] at [soff] into a CoW buffer at [off],
   page by page; per page, an identical write is recorded as silent
   and copies nothing. *)
let cow_write t c off src soff len =
  let rec go off soff len =
    if len > 0 then begin
      let pi = off / page_size in
      let poff = off mod page_size in
      let chunk = min len (page_size - poff) in
      (match Hashtbl.find_opt c.pages pi with
      | Some p -> Bytes.blit src soff p poff chunk
      | None ->
          if region_equal c.base.bytes ((pi * page_size) + poff) src soff chunk
          then c.silent <- c.silent + 1
          else Bytes.blit src soff (cow_page_rw t c pi) poff chunk);
      go (off + chunk) (soff + chunk) (len - chunk)
    end
  in
  go off soff len

let cow_read c off dst doff len =
  let rec go off doff len =
    if len > 0 then begin
      let pi = off / page_size in
      let poff = off mod page_size in
      let chunk = min len (page_size - poff) in
      let buf, pbase = cow_page c pi in
      Bytes.blit buf (pbase + poff) dst doff chunk;
      go (off + chunk) (doff + chunk) (len - chunk)
    end
  in
  go off doff len

let freeze t =
  match t.backing with
  | Flat buf -> frozen_of_bytes (Bytes.sub buf 0 t.len)
  | Cow c ->
      let out = Bytes.sub c.base.bytes 0 t.len in
      Hashtbl.iter
        (fun pi p -> Bytes.blit p 0 out (pi * page_size) (Bytes.length p))
        c.pages;
      frozen_of_bytes out

(* MD5 of page [pi] of the frozen base, hashed in place on first use
   and memoised. Sound because the base is never written: a page's
   digest is fixed for the life of the image. The memo hands out its
   own strings rather than 16-byte copies: a fork's snapshot then
   allocates nothing per shared page (copies measured +1.2 % peak heap
   on a forked fleet, from promoting a fresh string per page). *)
let frozen_page_digest f pi =
  if Array.length f.memo = 0 then
    f.memo <-
      Array.make ((Bytes.length f.bytes + page_size - 1) / page_size) "";
  if f.memo.(pi) = "" then begin
    let off = pi * page_size in
    let len = min page_size (Bytes.length f.bytes - off) in
    f.memo.(pi) <- Digest.subbytes f.bytes off len
  end;
  f.memo.(pi)

(* Drop private pages whose content re-converged with the base: a
   fork's boot replay must rewrite the page-table arena from scratch
   (it cannot read the baseline's future tables), and once rebuilt the
   pages are byte-identical to the frozen base again — sharing them
   back keeps the clone's resident footprint at its true divergence.
   Returns the number of pages reclaimed. *)
let cow_reclaim t =
  match t.backing with
  | Flat _ -> 0
  | Cow c ->
      let dead =
        Hashtbl.fold
          (fun pi p acc ->
            if region_equal c.base.bytes (pi * page_size) p 0 (Bytes.length p)
            then pi :: acc
            else acc)
          c.pages []
      in
      List.iter
        (fun pi ->
          Hashtbl.remove c.pages pi;
          c.copied <- c.copied - 1)
        dead;
      List.length dead

(* --- scalar accessors ---

   The Flat arm is the pre-overlay fast path (guest RAM of a
   cold-booted VM, every mmap). The Cow arm serves straight from the
   shared base or the private page; scalars that straddle a page
   boundary fall back to the byte-wise path. *)

let read_u8 t off =
  match t.backing with
  | Flat buf -> Char.code (Bytes.get buf off)
  | Cow c ->
      let buf, pbase = cow_page c (off / page_size) in
      Char.code (Bytes.get buf (pbase + (off mod page_size)))

let scalar_ro t off n =
  (* (buffer, offset) holding [n] bytes at [off], for reads only *)
  match t.backing with
  | Flat buf -> (buf, off)
  | Cow c ->
      let pi = off / page_size in
      let poff = off mod page_size in
      if poff + n <= page_size then
        let buf, pbase = cow_page c pi in
        (buf, pbase + poff)
      else begin
        let tmp = Bytes.create n in
        cow_read c off tmp 0 n;
        (tmp, 0)
      end

let scalar_write t off n (put : bytes -> int -> unit) =
  match t.backing with
  | Flat buf -> put buf off
  | Cow c ->
      let tmp = Bytes.create n in
      put tmp 0;
      cow_write t c off tmp 0 n

let read_u16 t off =
  let buf, o = scalar_ro t off 2 in
  Bytes.get_uint16_le buf o

let write_u16 t off v =
  scalar_write t off 2 (fun b o -> Bytes.set_uint16_le b o (v land 0xffff))

let read_u32 t off =
  let buf, o = scalar_ro t off 4 in
  Int32.to_int (Bytes.get_int32_le buf o) land 0xffffffff

let write_u32 t off v =
  scalar_write t off 4 (fun b o -> Bytes.set_int32_le b o (Int32.of_int v))

let read_u64 t off =
  let buf, o = scalar_ro t off 8 in
  let v = Bytes.get_int64_le buf o in
  if Int64.shift_right_logical v 62 <> 0L then
    invalid_arg
      (Printf.sprintf "Mem.read_u64: value 0x%Lx at offset %d exceeds 62 bits"
         v off);
  Int64.to_int v

let write_u64 t off v =
  scalar_write t off 8 (fun b o -> Bytes.set_int64_le b o (Int64.of_int v))

let read_i32 t off =
  let buf, o = scalar_ro t off 4 in
  Int32.to_int (Bytes.get_int32_le buf o)

let write_i32 t off v =
  scalar_write t off 4 (fun b o -> Bytes.set_int32_le b o (Int32.of_int v))

let write_u8 t off v =
  scalar_write t off 1 (fun b o -> Bytes.set b o (Char.chr (v land 0xff)))

let read_bytes t off len =
  match t.backing with
  | Flat buf -> Bytes.sub buf off len
  | Cow c ->
      let out = Bytes.create len in
      cow_read c off out 0 len;
      out

(* The MD5 of [len] bytes at [off]. A whole page of a CoW buffer is
   hashed from its private copy, or served from the base's memo while
   it is still shared; any other range is copied out and hashed.

   Flat memory keeps the copy too. Hashing it in place with
   [Digest.subbytes] is faster, but a cold boot's snapshot then stops
   allocating a page per digest, which shifts major-GC pacing and
   raises the peak heap of every cold-boot session. *)
let digest t off len =
  match t.backing with
  | Flat buf -> Digest.bytes (Bytes.sub buf off len)
  | Cow c
    when off mod page_size = 0 && off >= 0 && off < t.len
         && len = cow_page_len t (off / page_size) -> (
      let pi = off / page_size in
      match Hashtbl.find_opt c.pages pi with
      | Some p -> Digest.bytes p
      | None -> frozen_page_digest c.base pi)
  | Cow _ -> Digest.bytes (read_bytes t off len)

let write_bytes t off b =
  match t.backing with
  | Flat buf -> Bytes.blit b 0 buf off (Bytes.length b)
  | Cow c -> cow_write t c off b 0 (Bytes.length b)

let blit ~src ~src_off ~dst ~dst_off ~len =
  match (src.backing, dst.backing) with
  | Flat s, Flat d -> Bytes.blit s src_off d dst_off len
  | Flat s, Cow c -> cow_write dst c dst_off s src_off len
  | Cow c, Flat d -> cow_read c src_off d dst_off len
  | Cow _, Cow _ ->
      let tmp = read_bytes src src_off len in
      write_bytes dst dst_off tmp

let fill t off len ch =
  match t.backing with
  | Flat buf -> Bytes.fill buf off len ch
  | Cow c ->
      let tmp = Bytes.make (min len page_size) ch in
      let rec go off len =
        if len > 0 then begin
          let chunk = min len (page_size - (off mod page_size)) in
          cow_write t c off tmp 0 chunk;
          go (off + chunk) (len - chunk)
        end
      in
      go off len

let read_cstr t off ~max =
  let limit = min (off + max) (length t) in
  let rec scan i =
    if i >= limit then None
    else if read_u8 t i = 0 then Some (Bytes.to_string (read_bytes t off (i - off)))
    else scan (i + 1)
  in
  scan off

let write_cstr t off s =
  write_bytes t off (Bytes.of_string s);
  write_u8 t (off + String.length s) 0

module Addr_space = struct
  type mem = t

  type mapping = {
    base : int;
    len : int;
    backing : mem;
    backing_off : int;
    tag : string;
  }

  type nonrec t = { mutable maps : mapping list }

  let create () = { maps = [] }
  let mappings t = t.maps

  let overlaps a b =
    a.base < b.base + b.len && b.base < a.base + a.len

  let map t m =
    if m.len <= 0 then invalid_arg "Addr_space.map: empty mapping";
    (match List.find_opt (overlaps m) t.maps with
    | Some existing ->
        invalid_arg
          (Printf.sprintf
             "Addr_space.map: [0x%x,+0x%x) overlaps %s at [0x%x,+0x%x)" m.base
             m.len existing.tag existing.base existing.len)
    | None -> ());
    t.maps <- List.sort (fun a b -> compare a.base b.base) (m :: t.maps)

  let unmap t ~base = t.maps <- List.filter (fun m -> m.base <> base) t.maps

  let find t va =
    List.find_opt (fun m -> va >= m.base && va < m.base + m.len) t.maps

  let find_free t ~hint ~len =
    let rec probe base = function
      | [] -> base
      | m :: rest ->
          if base + len <= m.base then base
          else probe (max base (m.base + m.len)) rest
    in
    probe hint (List.filter (fun m -> m.base + m.len > hint) t.maps)

  let resolve t va =
    match find t va with
    | None -> None
    | Some m -> Some (m.backing, m.backing_off + (va - m.base))

  let rec read t va len =
    if len = 0 then Bytes.empty
    else
      match find t va with
      | None -> invalid_arg (Printf.sprintf "Addr_space.read: 0x%x unmapped" va)
      | Some m ->
          let avail = m.base + m.len - va in
          let chunk = min avail len in
          let part = read_bytes m.backing (m.backing_off + (va - m.base)) chunk in
          if chunk = len then part
          else Bytes.cat part (read t (va + chunk) (len - chunk))

  let rec write t va b =
    let len = Bytes.length b in
    if len > 0 then
      match find t va with
      | None -> invalid_arg (Printf.sprintf "Addr_space.write: 0x%x unmapped" va)
      | Some m ->
          let avail = m.base + m.len - va in
          let chunk = min avail len in
          blit ~src:(of_bytes b) ~src_off:0 ~dst:m.backing
            ~dst_off:(m.backing_off + (va - m.base)) ~len:chunk;
          if chunk < len then
            write t (va + chunk) (Bytes.sub b chunk (len - chunk))

  let read_u64 t va =
    match resolve t va with
    | Some (m, off) when off + 8 <= length m -> read_u64 m off
    | _ -> (
        let b = read t va 8 in
        match read_u64 (of_bytes b) 0 with v -> v)

  let write_u64 t va v =
    match resolve t va with
    | Some (m, off) when off + 8 <= length m -> write_u64 m off v
    | _ ->
        let b = Bytes.create 8 in
        Bytes.set_int64_le b 0 (Int64.of_int v);
        write t va b

  (* Reclaim re-converged private pages across every distinct CoW
     buffer mapped in this address space (post-replay cleanup of a
     forked VMM). *)
  let cow_reclaim_all t =
    let seen = ref [] in
    List.fold_left
      (fun acc m ->
        if List.memq m.backing !seen then acc
        else begin
          seen := m.backing :: !seen;
          acc + cow_reclaim m.backing
        end)
      0 (mappings t)

  (* Overlay totals for every distinct CoW buffer mapped in this
     address space (a forked VMM maps guest RAM and its bounce buffer
     over the baseline; the disk backend is counted by its owner). *)
  let cow_totals t =
    let seen = ref [] in
    List.fold_left
      (fun acc m ->
        if List.memq m.backing !seen then acc
        else begin
          seen := m.backing :: !seen;
          match cow_stats m.backing with
          | None -> acc
          | Some s ->
              {
                cs_pages_total = acc.cs_pages_total + s.cs_pages_total;
                cs_pages_copied = acc.cs_pages_copied + s.cs_pages_copied;
                cs_silent_writes = acc.cs_silent_writes + s.cs_silent_writes;
                cs_resident_bytes = acc.cs_resident_bytes + s.cs_resident_bytes;
              }
        end)
      {
        cs_pages_total = 0;
        cs_pages_copied = 0;
        cs_silent_writes = 0;
        cs_resident_bytes = 0;
      }
      t.maps
end

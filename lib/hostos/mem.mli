(** Raw byte memory and virtual address spaces.

    A {!t} is a flat byte buffer (e.g. the physical memory of a guest, or
    an anonymous mmap region in a host process). An {!Addr_space.t} maps
    virtual address ranges onto offsets inside such buffers, exactly like
    the page-granular mappings of a host process: guest physical memory
    appears inside the hypervisor's address space through one of these
    mappings (paper, Fig. 3). *)

type t
(** A contiguous byte buffer with little-endian accessors — either a
    flat private allocation or a per-4KiB-page copy-on-write overlay
    over a frozen base (see {!cow}). *)

val create : int -> t
(** [create len] allocates [len] zeroed bytes. *)

val of_bytes : bytes -> t
val length : t -> int

val page_size : int
(** Overlay granularity: 4096. *)

type frozen
(** Frozen contents a {!cow} view forks from, plus a per-page digest
    memo (one array slot and one 16-byte string per page, allocated
    and filled on first use) that every view over it shares. *)

val frozen_of_bytes : bytes -> frozen
(** Take ownership of [bytes] as a frozen base: it must never be
    mutated afterwards. *)

val frozen_bytes : frozen -> bytes
(** The frozen contents themselves (not a copy): read them, never
    write them. *)

val frozen_length : frozen -> int

val cow : frozen -> t
(** [cow base] is a copy-on-write view over the frozen [base]: reads
    fall through to [base]; the first write that *diverges* from the
    base copies that 4KiB page into a private overlay. Writing bytes
    identical to the base is recorded as a silent write and copies
    nothing, so a deterministic replay against the overlay stays fully
    shared. *)

val freeze : t -> frozen
(** A private snapshot of the full current contents (base + overlay
    for CoW buffers) — the frozen image a {!cow} view forks from. *)

val digest : t -> int -> int -> Digest.t
(** [digest m off len] is [Digest.bytes (read_bytes m off len)]. On a
    {!cow} buffer a whole page (or the short last page) that is still
    shared is served from the base's memo, and a copied page is hashed
    from its private copy, so neither is copied out. *)

val region_equal : bytes -> int -> bytes -> int -> int -> bool
(** [region_equal a aoff b boff len]: the [len] bytes of [a] at [aoff]
    equal those of [b] at [boff]. Compares eight bytes at a time.
    Raises [Invalid_argument] when either range is out of bounds. *)

val is_cow : t -> bool

(** Overlay occupancy counters of a {!cow} buffer. *)
type cow_stats = {
  cs_pages_total : int;  (** pages spanned by the buffer *)
  cs_pages_copied : int;  (** privately materialised pages *)
  cs_silent_writes : int;  (** writes that matched the base (no copy) *)
  cs_resident_bytes : int;  (** private overlay footprint in bytes *)
}

val cow_stats : t -> cow_stats option

val cow_reclaim : t -> int
(** Drop private overlay pages whose content re-converged with the
    shared base (e.g. page tables a fork's boot replay rebuilt
    byte-identically) so they stop counting as resident. Returns the
    number of pages reclaimed; 0 on a flat buffer. *)
(** [None] for flat buffers. *)

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val read_u16 : t -> int -> int
val write_u16 : t -> int -> int -> unit
val read_u32 : t -> int -> int
val write_u32 : t -> int -> int -> unit
val read_u64 : t -> int -> int
(** [read_u64 m off] reads 8 little-endian bytes as a non-negative OCaml
    int. The simulation restricts all stored values to 62 bits, so this
    cannot overflow. Raises [Invalid_argument] on a value with the two top
    bits set. *)

val write_u64 : t -> int -> int -> unit
val read_i32 : t -> int -> int
(** Sign-extending 32-bit read (for PREL32 relative references). *)

val write_i32 : t -> int -> int -> unit
val read_bytes : t -> int -> int -> bytes
val write_bytes : t -> int -> bytes -> unit
val blit : src:t -> src_off:int -> dst:t -> dst_off:int -> len:int -> unit
val fill : t -> int -> int -> char -> unit

val read_cstr : t -> int -> max:int -> string option
(** [read_cstr m off ~max] reads a NUL-terminated string of at most [max]
    bytes; [None] if no terminator is found within [max] bytes. *)

val write_cstr : t -> int -> string -> unit

module Addr_space : sig
  type mem = t

  (** One virtual mapping: [len] bytes at virtual address [base], backed
      by [backing] starting at [backing_off]. *)
  type mapping = {
    base : int;
    len : int;
    backing : mem;
    backing_off : int;
    tag : string;  (** human-readable origin, e.g. "guest-ram" or "mmap" *)
  }

  type t

  val create : unit -> t
  val mappings : t -> mapping list
  val map : t -> mapping -> unit
  (** Raises [Invalid_argument] if the range overlaps an existing one. *)

  val unmap : t -> base:int -> unit
  val find : t -> int -> mapping option
  (** Mapping containing the given virtual address, if any. *)

  val find_free : t -> hint:int -> len:int -> int
  (** A free virtual base of [len] bytes at or above [hint]. *)

  val resolve : t -> int -> (mem * int) option
  (** [resolve t va] is the backing buffer and offset for [va]. *)

  val read : t -> int -> int -> bytes
  (** [read t va len] reads across mapping boundaries. Raises
      [Invalid_argument] on an unmapped address. *)

  val write : t -> int -> bytes -> unit
  val read_u64 : t -> int -> int
  val write_u64 : t -> int -> int -> unit

  val cow_totals : t -> cow_stats

  val cow_reclaim_all : t -> int
  (** {!cow_reclaim} over every distinct CoW buffer mapped here;
      returns the total number of pages reclaimed. *)
  (** Summed {!cow_stats} over every distinct CoW buffer mapped in
      this address space (zeros when none is mapped) — the overlay
      footprint of a forked process. *)
end

(** The rollback oracle: snapshots of guest memory and vCPU registers.

    {!capture} hashes guest physical memory per 4 KiB page (via the
    simulated KVM's direct view — zero virtual-time cost) and each
    vCPU's register file. {!diff} compares two snapshots modulo an
    exclusion interval set, proving that a detached or aborted attach
    restored the guest byte-for-byte. *)

type t

val page_size : int

val capture : Kvm.Vm.t -> t

val dirty_since : Kvm.Vm.t -> t -> (int * int) list
(** Intervals the guest itself has written since the snapshot was
    captured — the legitimate mutations the oracle must not blame on
    VMSH. Union these with the journal's {!Journal.late_writes} as the
    [exclude] argument to {!diff}. *)

val diff : before:t -> after:t -> exclude:(int * int) list -> string list
(** Every discrepancy, as human-readable lines; [[]] means clean.
    Checks memslot-set equality, per-page digests outside the excluded
    pages (page-granular), and register files. *)

val check : before:t -> after:t -> exclude:(int * int) list -> bool

val slots : t -> (int * int * int * Digest.t array) list
(** [(slot, gpa, size, per-page digests)] in slot order: what a test
    checks against an independently computed capture. *)

val digest : t -> string
(** One hex digest over every page and register digest — equal iff the
    captured guest states are equal. The replay-diff oracle compares
    this between a live run and its replay. *)

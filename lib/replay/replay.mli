(** The replay-diff oracle: deterministic re-execution of a recorded
    flight log.

    A [.vmshtrace] file's header is the {!Fleet.Session.Recipe.t} that
    produced it, seeds and all. The substrate is a deterministic
    function of those seeds, so {!replay} re-runs the recipe without
    the original guest and compares the fresh run against the file,
    event by event, plus the guest-state digest. Any divergence means
    nondeterminism crept into the pipeline or the recording is corrupt
    — a second oracle next to {!Vmsh.Snapshot}. *)

type run = {
  run_events : Trace.event list;  (** the fresh run's flight recording *)
  run_digest : string;  (** its guest-state digest ([""] when none is taken) *)
}

val execute :
  ?log_level:Observe.level -> Fleet.Session.Recipe.t -> (run, string) result
(** Run the recipe: a whole-fleet recipe through the fleet engine, any
    other through {!Fleet.Session.run}. [Error] only when the fleet
    engine rejects the configuration. [log_level] sets the re-run
    hosts' stderr log level (default quiet, so output stays
    byte-comparable). *)

val record :
  ?log_level:Observe.level ->
  Fleet.Session.Recipe.t ->
  path:string ->
  (run, string) result
(** {!execute}, then save the recording, headed by the recipe and the
    digest, as a [.vmshtrace] file at [path]. *)

val replay :
  ?log_level:Observe.level -> path:string -> unit -> (string list, string) result
(** Load [path], re-run its recipe, and diff: [Ok []] is a clean
    replay, [Ok lines] lists the divergences, [Error] means the file or
    its header could not be read. *)

(** Content-hash compilation cache for the daemon.

    Keys are an MD5 digest of (pipeline revision × variant × arch ×
    maxlen × emit × source), so two textually identical programs share
    one entry, a changed request parameter misses, and a daemon rebuilt
    with a different {!Compile_one.pipeline_rev} never serves verdicts
    computed by an older pipeline. Values are the finished response
    payload (minus per-request fields), so a hit costs one hash and one
    table lookup.

    Bounded FIFO: at [max_entries] the oldest entry is evicted. Hit and
    miss counters feed the [metrics] endpoint. Not thread-safe — the
    server touches it from the event-loop domain only. *)

type 'a t

val create : ?max_entries:int -> unit -> 'a t
(** Default [max_entries] 4096. [max_entries <= 0] disables caching
    (every lookup misses, nothing is stored). *)

val key :
  variant:string -> arch:string -> maxlen:int64 -> emit:bool ->
  source:string -> string
(** The digest key; mixes in {!Compile_one.pipeline_rev}. *)

val find : 'a t -> string -> 'a option
(** Lookup; counts a hit or a miss. *)

val add : 'a t -> string -> 'a -> unit
(** Insert (evicting the oldest entry when full). Re-adding an existing
    key is a no-op: the first computed payload wins, keeping concurrent
    duplicate compiles idempotent. *)

val hits : _ t -> int
val misses : _ t -> int
val size : _ t -> int

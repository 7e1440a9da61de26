(** Superinstruction-fusion gating for the pre-decoded engine.

    A {!selection} names which fusion rules {!Precode.decode} may apply;
    the ambient default is the [SXE_FUSE] environment variable ([all],
    [off], or a comma-separated rule list), read once per process. See
    [docs/VM.md], "Superinstructions". *)

type selection = Precode.selection = All | Off | Rules of string list

val rule_names : string list
(** Every rule of {!Precode}'s shape table, in table order. *)

val is_rule : string -> bool

val key : selection -> string
(** Stable cache key; decoded images are cached per (mode, key). *)

val parse : string -> (selection, string) result
(** Parse an [SXE_FUSE]-style spec; rejects unknown rule names. *)

val of_env : unit -> selection
(** The ambient selection from [SXE_FUSE] (default [All]); raises
    [Invalid_argument] on a malformed value. Safe to call from several
    domains at once. *)

val once : (unit -> 'a) -> unit -> 'a
(** [once f] is [f ()], computed on the first call and then memoized,
    safe to call from several domains at once: racing first callers may
    each run [f], and all of them return the first result published. An
    exception from [f] is not memoized. *)

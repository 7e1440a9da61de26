(** A fixed pool of worker domains with deterministic, ordered result
    delivery.

    The pool exists to parallelize the repo's three hot loops — the
    evaluation matrix, the certify/lint matrix and fuzz campaigns — whose
    work items are independent and deterministic in their index. The
    contract is therefore strict: whatever the parallelism degree, callers
    observe results {e in input order}, so any output derived from them is
    byte-identical to a sequential run.

    {2 Scheduling}

    Work is scheduled in {e chunks}: a batch of [n] items is cut into
    contiguous index ranges and each range is one queue entry, so the
    queue/mutex traffic per item is amortized by the chunk size. The chunk
    size is the [?chunk] argument to {!create} / {!with_pool} if given,
    otherwise an automatic size derived from the batch and the worker
    count ({!auto_chunk}).
    Chunking is invisible to callers: delivery order and exception
    semantics are those of the sequential loop.

    {2 Worker-count clamping}

    Spawning more domains than the machine has cores is a pure loss for
    CPU-bound work under OCaml 5: every minor collection is a
    stop-the-world handshake between all running domains, and when they
    time-share one core each handshake costs scheduling quanta, not
    microseconds. [create] therefore clamps the number of {e spawned}
    workers to [Domain.recommended_domain_count ()]; if that leaves no
    parallelism the pool takes the exact sequential path. The requested
    degree is preserved in {!jobs}, the spawned count in {!domains}, and
    output is byte-identical either way. Clamping can be disabled for
    race-hunting tests with [~clamp:false].

    {2 GC tuning}

    Each worker domain retunes its own minor heap at spawn (to [2^20]
    words): the defaults are sized for one
    domain, and with several allocation-heavy domains the stop-the-world
    minor-collection rate becomes the scaling bottleneck. While workers
    are alive the pool also raises the (global) major-GC
    [space_overhead] if it is below 200, restoring the previous value at
    shutdown.

    {2 Bounded resequencing}

    [consume_map] delivers results on the calling domain in ascending
    index order, buffering finished-but-not-yet-consumable results. The
    buffer is bounded: workers do not {e start} a chunk more than a fixed
    window of items ahead of the consume cursor (they wait, counted in
    {!stats}), so a slow consumer cannot make the pool hold the whole
    batch's results live.

    [jobs = 1] spawns no domains at all: {!map} is [List.map] and
    {!consume_map} interleaves compute and consume exactly like the
    sequential loop it replaces.

    Worker exceptions are marshaled back to the caller: the batch runs to
    completion (so the pool stays reusable) and the exception of the
    {e lowest} failing index is re-raised on the calling domain with its
    original backtrace — the same exception a sequential run would have
    surfaced first. An exception raised {e mid-chunk} marks only that
    item as failed; the chunk's remaining items still run.

    Not re-entrant: calling {!map}/{!consume_map} from inside a task of
    the same pool deadlocks. One batch at a time per pool. Using a pool
    after {!shutdown} raises [Invalid_argument].

    {2 Fire-and-forget tasks}

    {!submit} is the non-blocking entry point for a caller that must
    never compute itself (the daemon's event loop): it enqueues one
    task and returns at once. It needs worker domains, so such a pool
    is created with [~dedicated:true], which spawns at least one worker
    even at [jobs = 1]. Results travel back however the task arranges;
    the pool delivers nothing. *)

type t

val create : ?clamp:bool -> ?dedicated:bool -> ?chunk:int -> jobs:int -> unit -> t
(** [create ~jobs ()] makes a pool of degree [jobs] ([jobs >= 1]; [1]
    spawns no domains). The spawned worker count is additionally capped
    at a safe margin below the OCaml runtime's domain limit and — unless
    [clamp] is [false] — at [Domain.recommended_domain_count ()].
    [dedicated] (default [false]) spawns at least one worker whatever
    [jobs] and the clamp say, as {!submit} requires.
    [chunk] forces the scheduling chunk size (otherwise automatic).
    Raises [Invalid_argument] on [jobs < 1] or [chunk < 1]. *)

val jobs : t -> int
(** The requested parallelism degree. *)

val domains : t -> int
(** Worker domains actually spawned ([0] on the sequential path). *)

val shutdown : t -> unit
(** Stop and join the workers; idempotent. Every task {!submit}ted
    before the call runs to completion first. The pool must not be used
    afterwards: later batches raise [Invalid_argument]. *)

val with_pool :
  ?clamp:bool -> ?dedicated:bool -> ?chunk:int -> jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and shuts it down on
    the way out, exceptions included. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs] computes [List.map f xs], distributing chunks of
    elements over the pool's workers. Results are in input order. *)

val consume_map : t -> ('a -> 'b) -> consume:(int -> 'b -> unit) -> 'a list -> unit
(** [consume_map t f ~consume xs] computes [f] over [xs] on the workers
    and calls [consume i (f x_i)] on the {e calling} domain, in strictly
    ascending index order, each as soon as its result (and all earlier
    ones) is available. This is the streaming primitive behind the fuzz
    driver's progress log. Exceptions raised by [consume] propagate
    immediately; pending worker chunks of the batch finish in the
    background and are discarded. *)

val submit : t -> (unit -> unit) -> unit
(** [submit t f] queues [f] to run once on a worker domain and returns
    without waiting; tasks start in submission order. [f] must not
    raise: an escaping exception ends its worker domain, and {!shutdown}
    re-raises it when joining. Each task counts as one item and one
    chunk in {!stats}. Raises [Invalid_argument] on a pool without
    worker domains (see [dedicated] in {!create}) or after {!shutdown}. *)

(** {2 Instrumentation} *)

type stats = {
  domains : int;  (** worker domains spawned; [0] = sequential path *)
  chunk : int;  (** chunk size resolved for the most recent batch *)
  tasks : int array;  (** items executed, per worker *)
  chunks : int array;  (** chunks executed, per worker *)
  queue_waits : int array;  (** empty-queue condition waits, per worker *)
  throttle_waits : int array;
      (** resequencer-window waits before starting a chunk, per worker *)
  busy_s : float array;  (** wall seconds spent inside task bodies, per worker *)
  max_buffered : int;
      (** high-water mark of finished-but-unconsumed items across batches *)
}

val stats : t -> stats
(** Cumulative counters since [create]. Safe to call between batches;
    during a batch the snapshot is approximate. *)

val auto_chunk : domains:int -> n:int -> int
(** The automatic chunk size for a batch of [n] items on [domains]
    workers: [n / (8 * domains)] clamped to [[1, 64]] — about eight
    chunks per worker, so stragglers rebalance while queue traffic stays
    amortized. *)

(** {2 Environment knob} *)

val env_var : string
(** ["SXE_JOBS"]. *)

val default_jobs : unit -> int
(** The parallelism degree requested by the [SXE_JOBS] environment
    variable, or [1] when unset or empty. Raises [Invalid_argument] when
    the variable is set to anything but a positive integer. *)

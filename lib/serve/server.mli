(** [sxopt serve]: a long-running compile-and-certify daemon.

    The server listens on a Unix-domain socket and speaks
    newline-delimited JSON: one request object per line, one response
    object per line. A request's optional [id] is echoed in its
    response; clients that pipeline correlate by [id], because a
    cache-missing [compile] is answered when its compile finishes while
    later cheap requests (ping, metrics, cache hits) are answered
    inline — replies on one connection can legally interleave. A
    client that keeps one request in flight (like {!Client}) always
    sees strict request/response order. See docs/SERVE.md for the
    protocol. Operations:

    - [compile] — optimize + certify (+ optionally emit pseudo-assembly)
      one MiniJ program under one variant/arch; the verdict payload is
      the same computation as the one-shot CLI ({!Compile_one}).
    - [metrics] — counters, cache statistics and latency quantiles.
    - [ping] — liveness probe.
    - [shutdown] — begin a graceful drain (same as SIGTERM).

    {2 Architecture}

    A single select-driven event loop owns every socket, the response
    cache and the counters, and never compiles. Requests already
    satisfied by the content-hash {!Cache} are answered inline. Each
    cache miss, once parsed and keyed, is handed with
    {!Sxe_par.Pool.submit} to a pool of [jobs] worker domains as soon as
    it is read. The worker queues its outcome under a mutex and writes
    one byte to a self-pipe that the loop's [select] watches; the loop
    then caches the payload and answers every requester, while it keeps
    reading, answering hits and dispatching. A miss whose key is already
    in flight joins that compile and is counted as [coalesced].

    {2 Backpressure and timeouts}

    At most [queue_max] compiles may be queued or running; a further
    cache miss is answered [{"ok":false,"error":"overloaded"}]
    immediately (the 429 of this protocol) instead of buffering without
    bound. A compile whose first request has waited longer than
    [timeout_s] when a worker picks it up is not run: its requesters
    are answered [{"ok":false,"error":"timeout"}].

    {2 Shutdown and robustness}

    On SIGTERM/SIGINT (when [handle_signals]), a [shutdown] request, or
    {!stop}: the listen socket closes (new connections are rejected by
    the OS), every fully-received request is still compiled and
    answered, the loop waits until no compile is in flight, replies are
    flushed, and the loop exits after removing the socket file. The
    in-memory cache is only ever touched from the event loop, so a
    drain can never corrupt it. SIGPIPE is ignored; a client that
    disconnects mid-request costs its own reply and nothing else — its
    compile completes and is cached, the dead connection is reaped, and
    no pool slot leaks.

    No single request or connection can take the daemon down: request
    handling and every compile task sit behind an exception barrier (an
    unexpected exception is answered as
    [{"ok":false,"error":"internal"}]; a raise in a task would end its
    worker domain and hang the drain), {!Json.parse}
    raises only [Parse_error] and bounds nesting depth, a
    protocol-broken connection (over-long line) still receives its
    error reply before the close, and fd exhaustion under a connection
    flood ([EMFILE]/[ENFILE]) sheds load instead of raising out of the
    accept loop. *)

type config = {
  socket_path : string;
  jobs : int;
      (** compile worker domains (>= 1; clamped to the core count), none
          of them the loop's *)
  queue_max : int;  (** bound on queued plus running compiles *)
  timeout_s : float;  (** max wait for a worker before "timeout" *)
  cache_max : int;  (** cache entries ({!Cache.create}) *)
}

val default_config : socket_path:string -> config
(** jobs 1, queue_max 64, timeout_s 30, cache_max 4096. *)

type t

val create : config -> t

val serve : ?handle_signals:bool -> ?on_ready:(unit -> unit) -> t -> unit
(** Bind, listen and run the event loop; returns after a graceful
    drain. [on_ready] fires once the socket accepts connections (tests
    synchronize on it). [handle_signals] (default [false]) installs
    SIGTERM/SIGINT handlers that begin the drain — the CLI sets it; an
    in-process test harness must not. Raises [Failure] if the socket
    path is already served by a live daemon. *)

val stop : t -> unit
(** Begin a graceful drain from any domain or signal context;
    idempotent. The loop notices within its select tick. *)

val requests_served : t -> int
(** Total requests answered so far (any operation, any outcome). *)

module Json = Sxe_util.Json
module Monoclock = Sxe_util.Monoclock

type config = {
  socket_path : string;
  jobs : int;
  queue_max : int;
  timeout_s : float;
  cache_max : int;
}

let default_config ~socket_path =
  { socket_path; jobs = 1; queue_max = 64; timeout_s = 30.0; cache_max = 4096 }

(* Per-connection state. [wbuf]/[woff] form a simple send buffer: bytes
   before [woff] have been written; when everything is out the buffer
   resets. *)
type conn = {
  fd : Unix.file_descr;
  rbuf : Buffer.t;  (* bytes of a not-yet-complete request line *)
  wbuf : Buffer.t;  (* reply bytes not yet accepted by the kernel *)
  mutable woff : int;
  mutable closed : bool;
  mutable draining : bool;
      (* protocol-broken: stop reading, close once wbuf is flushed, so
         the client sees the final error reply instead of a bare
         hang-up *)
}

(* A request waiting for a compile: where and how to answer it. *)
type waiter = {
  r_conn : conn;
  r_id : string option;  (* the request's "id" member, re-rendered *)
  r_received : int64;
}

(* One cache-missing compile, fully parsed and keyed; [w_received] is
   the arrival of the request that started it. *)
type work = {
  w_key : string;
  w_config : Sxe_core.Config.t;
  w_arch_name : string;
  w_maxlen : int64;
  w_emit : bool;
  w_source : string;
  w_received : int64;
}

(* A reply minus its per-request members ("id", "cached"): whether it
   reports success, and its remaining members rendered once, so a cache
   hit re-sends bytes instead of re-rendering the assembly text. *)
type payload = { ok : bool; members : string }

(* What a worker hands back for one compile: the payload and whether it
   may be cached, or [Expired] when the task was picked up after the
   queue-wait timeout and never compiled. *)
type outcome = Compiled of payload * bool | Expired

type t = {
  config : config;
  stopping : bool Atomic.t;
  cache : payload Cache.t;
  lat : Hist.t;
  inflight : (string, waiter list) Hashtbl.t;
      (* key -> its requesters, newest first: every compile queued on or
         running in the pool *)
  pending : work Queue.t;  (* read this tick, not yet submitted *)
  finished : (string * outcome) Queue.t;  (* filled by workers *)
  finished_lock : Mutex.t;  (* guards [finished] *)
  mutable started : int64;
  (* counters, event-loop domain only *)
  mutable requests : int;
  mutable compile_requests : int;
  mutable compiles : int;
  mutable ok_count : int;
  mutable err_count : int;
  mutable overloaded : int;
  mutable timeouts : int;
  mutable coalesced : int;
  mutable max_queue : int;
  mutable total_conns : int;
  mutable live_conns : int;
}

let create (config : config) : t =
  {
    config;
    stopping = Atomic.make false;
    cache = Cache.create ~max_entries:config.cache_max ();
    lat = Hist.create ();
    inflight = Hashtbl.create 64;
    pending = Queue.create ();
    finished = Queue.create ();
    finished_lock = Mutex.create ();
    started = 0L;
    requests = 0;
    compile_requests = 0;
    compiles = 0;
    ok_count = 0;
    err_count = 0;
    overloaded = 0;
    timeouts = 0;
    coalesced = 0;
    max_queue = 0;
    total_conns = 0;
    live_conns = 0;
  }

let stop t = Atomic.set t.stopping true
let requests_served t = t.requests

(* A request line (with its terminator) may not exceed this; beyond it
   the connection is protocol-broken and dropped. *)
let max_line = 16 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Payload construction                                                *)
(* ------------------------------------------------------------------ *)

let payload ok members =
  let s = Json.to_string (Json.Obj (("ok", Json.Bool ok) :: members)) in
  { ok; members = String.sub s 1 (String.length s - 2) }

(* Times are excluded: the verdict for a given (source, variant, arch,
   maxlen, emit) must be byte-stable across runs, machines and cache
   hits. *)
let stats_json (s : Sxe_core.Stats.t) =
  let open Sxe_core.Stats in
  Json.Obj
    (List.map
       (fun (k, v) -> (k, Json.of_int v))
       [
         ("generated", s.generated);
         ("generated_zext", s.generated_zext);
         ("inserted", s.inserted);
         ("dummies", s.dummies);
         ("eliminated", s.eliminated);
         ("eliminated_zext", s.eliminated_zext);
         ("eliminated_by_pre", s.eliminated_by_pre);
         ("remaining", s.remaining);
         ("remaining_zext", s.remaining_zext);
       ]
    @ [ ("theorems", Json.Arr (List.map (fun i -> Json.of_int s.by_theorem.(i)) [ 1; 2; 3; 4 ])) ])

let ok_payload ~arch_name (o : Compile_one.outcome) =
  payload true
    [
      ("variant", Json.Str o.Compile_one.config.Sxe_core.Config.name);
      ("arch", Json.Str arch_name);
      ("certified", Json.Bool (o.Compile_one.errors = []));
      ("errors", Json.Arr (List.map Sxe_check.Check.error_to_json o.Compile_one.errors));
      ("stats", stats_json o.Compile_one.stats);
      ("asm", Option.fold ~none:Json.Null ~some:(fun a -> Json.Str a) o.Compile_one.asm);
    ]

let err_payload ~category ~detail =
  payload false [ ("error", Json.Str category); ("detail", Json.Str detail) ]

(* Runs on a pool worker, which takes the queue-wait timeout at pickup.
   Deterministic outcomes (verdicts, frontend errors and analyses that do
   not converge) cache; internal crashes do not, so a transient failure
   is retried rather than pinned.
   Nothing may escape: a raise would end the worker domain and leave the
   compile in flight forever. *)
let compile_outcome ~timeout_s (w : work) : outcome =
  try
    if Monoclock.elapsed_s w.w_received > timeout_s then Expired
    else
      match
        Compile_one.run_source ~emit:w.w_emit ~config:w.w_config
          ~maxlen:w.w_maxlen w.w_source
      with
      | Ok o -> Compiled (ok_payload ~arch_name:w.w_arch_name o, true)
      | Error msg -> Compiled (err_payload ~category:"frontend" ~detail:msg, true)
  with e ->
    let category = Compile_one.error_category e in
    Compiled (err_payload ~category ~detail:(Printexc.to_string e), category <> "internal")

(* ------------------------------------------------------------------ *)
(* Connection I/O                                                      *)
(* ------------------------------------------------------------------ *)

let close_conn t (c : conn) =
  if not c.closed then begin
    c.closed <- true;
    t.live_conns <- t.live_conns - 1;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

(* Append a full response line. [cached] is printed only for compile
   responses (it is meaningless elsewhere). *)
let send t (c : conn) ?cached ~id payload =
  if not c.closed then begin
    let b = c.wbuf in
    Buffer.add_char b '{';
    (match id with
    | Some j ->
        Buffer.add_string b "\"id\":";
        Buffer.add_string b j;
        Buffer.add_char b ','
    | None -> ());
    (match cached with
    | Some v ->
        Buffer.add_string b "\"cached\":";
        Buffer.add_string b (string_of_bool v);
        Buffer.add_char b ','
    | None -> ());
    Buffer.add_string b payload.members;
    Buffer.add_string b "}\n"
  end;
  ignore t

let flush_conn t (c : conn) =
  if (not c.closed) && Buffer.length c.wbuf > c.woff then begin
    let s = Buffer.contents c.wbuf in
    let len = String.length s in
    match Unix.write_substring c.fd s c.woff (len - c.woff) with
    | n ->
        c.woff <- c.woff + n;
        if c.woff >= len then begin
          Buffer.clear c.wbuf;
          c.woff <- 0
        end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (EINTR, _, _) ->
        (* a signal (e.g. SIGTERM starting the drain) interrupted the
           write; the bytes go out on the next loop tick *)
        ()
    | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF | ENOTCONN), _, _)
      ->
        close_conn t c
  end

let flushed (c : conn) = Buffer.length c.wbuf <= c.woff

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

let count_outcome t payload =
  if payload.ok then t.ok_count <- t.ok_count + 1
  else t.err_count <- t.err_count + 1

let record_latency t received =
  Hist.add t.lat (Monoclock.elapsed_s received)

let metrics_payload t =
  let int n = Json.of_int n and ms s = Json.Float (s *. 1e3) in
  payload true
    [
      ( "metrics",
        Json.Obj
          [
            ("uptime_s", Json.Float (Monoclock.elapsed_s t.started));
            ("requests", int t.requests);
            ("compile_requests", int t.compile_requests);
            ("compiles", int t.compiles);
            ("ok", int t.ok_count);
            ("errors", int t.err_count);
            ("overloaded", int t.overloaded);
            ("timeouts", int t.timeouts);
            ("coalesced", int t.coalesced);
            (* every compile is its own pool task: a batch of one *)
            ("batches", int t.compiles);
            ("queue_depth", int (Hashtbl.length t.inflight));
            ("max_queue_depth", int t.max_queue);
            ("connections", int t.live_conns);
            ("total_connections", int t.total_conns);
            ( "cache",
              Json.Obj
                [
                  ("hits", int (Cache.hits t.cache));
                  ("misses", int (Cache.misses t.cache));
                  ("size", int (Cache.size t.cache));
                ] );
            ( "latency",
              Json.Obj
                [
                  ("count", int (Hist.count t.lat));
                  ("p50_ms", ms (Hist.quantile t.lat 0.50));
                  ("p99_ms", ms (Hist.quantile t.lat 0.99));
                  ("mean_ms", ms (Hist.mean_s t.lat));
                  ("max_ms", ms (Hist.max_s t.lat));
                ] );
            ("jobs", int t.config.jobs);
            ("pipeline_rev", Json.Str Compile_one.pipeline_rev);
          ] );
    ]

(* A cache miss joins its key's in-flight compile, or starts one unless
   [queue_max] compiles are already queued or running. *)
let miss t (r : waiter) (w : work) =
  match Hashtbl.find_opt t.inflight w.w_key with
  | Some waiters ->
      t.coalesced <- t.coalesced + 1;
      Hashtbl.replace t.inflight w.w_key (r :: waiters)
  | None ->
      let depth = Hashtbl.length t.inflight in
      if depth >= t.config.queue_max then begin
        t.overloaded <- t.overloaded + 1;
        t.err_count <- t.err_count + 1;
        send t r.r_conn ~id:r.r_id ~cached:false
          (err_payload ~category:"overloaded"
             ~detail:
               (Printf.sprintf
                  "queue full (%d compiles queued or running); retry later" depth))
      end
      else begin
        (* every key in [inflight] reaches the pool through [pending],
           or the drain would wait for it forever *)
        Hashtbl.add t.inflight w.w_key [ r ];
        Queue.push w t.pending;
        t.max_queue <- max t.max_queue (depth + 1)
      end

let handle_compile t (c : conn) ~id (j : Json.t) =
  t.compile_requests <- t.compile_requests + 1;
  let received = Monoclock.now_ns () in
  let bad detail =
    t.err_count <- t.err_count + 1;
    send t c ~id ~cached:false (err_payload ~category:"bad_request" ~detail)
  in
  match Json.str "source" j with
  | None -> bad "missing or non-string \"source\""
  | Some source -> (
      (* like maxlen/emit below: a default fills an absent member only
         — present-but-wrong-typed is a bad request, not a silent
         compile under a config the client did not ask for *)
      match
        ( Json.str ~default:"all" "variant" j,
          Json.str ~default:"ia64" "arch" j )
      with
      | None, _ -> bad "non-string \"variant\""
      | _, None -> bad "non-string \"arch\""
      | Some vname, Some aname -> (
      match (Sxe_core.Config.variant_of_name vname, Compile_one.arch_of_name aname)
      with
      | None, _ -> bad (Printf.sprintf "unknown variant %S" vname)
      | _, None -> bad (Printf.sprintf "unknown arch %S" aname)
      | Some variant, Some arch -> (
          match
            ( Json.int ~default:Sxe_ir.Types.max_array_length "maxlen" j,
              Json.bool ~default:false "emit" j )
          with
          | None, _ -> bad "non-integer \"maxlen\""
          | _, None -> bad "non-boolean \"emit\""
          | Some maxlen, Some emit -> (
              let key =
                Cache.key ~variant:vname ~arch:aname ~maxlen ~emit ~source
              in
              match Cache.find t.cache key with
              | Some payload ->
                  count_outcome t payload;
                  record_latency t received;
                  send t c ~id ~cached:true payload
              | None ->
                  miss t
                    { r_conn = c; r_id = id; r_received = received }
                    {
                      w_key = key;
                      w_config = Sxe_core.Config.of_variant ~arch ~maxlen variant;
                      w_arch_name = aname;
                      w_maxlen = maxlen;
                      w_emit = emit;
                      w_source = source;
                      w_received = received;
                    }))))

let handle_line_exn t (c : conn) (line : string) =
  match Json.parse line with
  | exception Json.Parse_error msg ->
      t.err_count <- t.err_count + 1;
      send t c ~id:None (err_payload ~category:"parse" ~detail:msg)
  | j -> (
      let id = Option.map Json.to_string (Json.member "id" j) in
      match Json.str "op" j with
      | None ->
          t.err_count <- t.err_count + 1;
          send t c ~id
            (err_payload ~category:"bad_request" ~detail:"missing \"op\"")
      | Some "ping" ->
          t.ok_count <- t.ok_count + 1;
          send t c ~id (payload true [ ("pong", Json.Bool true) ])
      | Some "metrics" ->
          t.ok_count <- t.ok_count + 1;
          send t c ~id (metrics_payload t)
      | Some "shutdown" ->
          t.ok_count <- t.ok_count + 1;
          Atomic.set t.stopping true;
          send t c ~id (payload true [ ("stopping", Json.Bool true) ])
      | Some "compile" -> handle_compile t c ~id j
      | Some op ->
          t.err_count <- t.err_count + 1;
          send t c ~id
            (err_payload ~category:"bad_request"
               ~detail:(Printf.sprintf "unknown op %S" op)))

(* The last-resort exception barrier between one request and the event
   loop: nothing a single line can contain may unwind [serve] and take
   every live connection down with it. [Json.parse] only raises
   [Parse_error], but request dispatch runs real code; an unexpected
   exception is answered as an internal error and the loop moves on. *)
let handle_line t (c : conn) (line : string) =
  t.requests <- t.requests + 1;
  try handle_line_exn t c line
  with e ->
    t.err_count <- t.err_count + 1;
    send t c ~id:None
      (err_payload ~category:"internal" ~detail:(Printexc.to_string e))

(* Consume complete lines from the connection's read buffer. *)
let ingest t (c : conn) =
  let s = Buffer.contents c.rbuf in
  match String.rindex_opt s '\n' with
  | None ->
      if String.length s > max_line then begin
        send t c ~id:None
          (err_payload ~category:"bad_request" ~detail:"request line too long");
        (* an immediate close would discard the reply from the write
           buffer; drain instead — the loop closes after the flush *)
        Buffer.clear c.rbuf;
        c.draining <- true
      end
  | Some last ->
      Buffer.clear c.rbuf;
      Buffer.add_substring c.rbuf s (last + 1) (String.length s - last - 1);
      String.split_on_char '\n' (String.sub s 0 last)
      |> List.iter (fun line ->
             let line = String.trim line in
             if line <> "" then handle_line t c line)

let read_conn t (c : conn) =
  let buf = Bytes.create 65536 in
  let rec go () =
    if c.closed || c.draining then ()
    else
      match Unix.read c.fd buf 0 (Bytes.length buf) with
      | 0 -> close_conn t c (* EOF: replies are undeliverable *)
      | n ->
          Buffer.add_subbytes c.rbuf buf 0 n;
          if n = Bytes.length buf then go ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (EINTR, _, _) -> go ()
      | exception Unix.Unix_error ((ECONNRESET | EPIPE | EBADF), _, _) ->
          close_conn t c
  in
  go ();
  if (not c.closed) && not c.draining then ingest t c

(* ------------------------------------------------------------------ *)
(* Compile dispatch                                                    *)
(* ------------------------------------------------------------------ *)

(* Hand every compile read this tick to the pool. The task runs on a
   worker domain, queues its outcome under [finished_lock] and writes
   one byte to the self-pipe [wake] so the loop's select returns. A
   full pipe already has a wake-up pending, so that write may fail. *)
let dispatch t pool ~wake =
  while not (Queue.is_empty t.pending) do
    let w = Queue.pop t.pending in
    t.compiles <- t.compiles + 1;
    Sxe_par.Pool.submit pool (fun () ->
        let o = compile_outcome ~timeout_s:t.config.timeout_s w in
        Mutex.lock t.finished_lock;
        Queue.push (w.w_key, o) t.finished;
        Mutex.unlock t.finished_lock;
        try ignore (Unix.single_write_substring wake "!" 0 1)
        with Unix.Unix_error _ -> ())
  done

(* Cache each finished compile and answer everyone who asked for it. *)
let deliver t (key, outcome) =
  let waiters = List.rev (Hashtbl.find t.inflight key) in
  Hashtbl.remove t.inflight key;
  match outcome with
  | Expired ->
      List.iter
        (fun w ->
          t.timeouts <- t.timeouts + 1;
          t.err_count <- t.err_count + 1;
          send t w.r_conn ~id:w.r_id ~cached:false
            (err_payload ~category:"timeout"
               ~detail:
                 (Printf.sprintf "queued longer than %.1fs" t.config.timeout_s)))
        waiters
  | Compiled (payload, cacheable) ->
      if cacheable then Cache.add t.cache key payload;
      List.iter
        (fun w ->
          count_outcome t payload;
          record_latency t w.r_received;
          send t w.r_conn ~id:w.r_id ~cached:false payload)
        waiters

(* Empty the self-pipe first, then the queue: a byte written after the
   read belongs to an outcome that is either taken now or wakes the
   next select. *)
let collect t ~wake =
  let buf = Bytes.create 256 in
  let rec empty_pipe () =
    match Unix.read wake buf 0 (Bytes.length buf) with
    | 0 -> ()
    | _ -> empty_pipe ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (EINTR, _, _) -> empty_pipe ()
  in
  empty_pipe ();
  let done_ = Queue.create () in
  Mutex.lock t.finished_lock;
  Queue.transfer t.finished done_;
  Mutex.unlock t.finished_lock;
  Queue.iter (deliver t) done_

(* ------------------------------------------------------------------ *)
(* Event loop                                                          *)
(* ------------------------------------------------------------------ *)

let claim_socket path =
  if Sys.file_exists path then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect probe (Unix.ADDR_UNIX path) with
    | () ->
        Unix.close probe;
        failwith (path ^ ": a daemon is already serving this socket")
    | exception Unix.Unix_error _ ->
        (* stale socket file from an unclean exit *)
        Unix.close probe;
        (try Unix.unlink path with Sys_error _ | Unix.Unix_error _ -> ())
  end

let serve ?(handle_signals = false) ?on_ready t =
  let path = t.config.socket_path in
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  if handle_signals then
    List.iter
      (fun s ->
        Sys.set_signal s (Sys.Signal_handle (fun _ -> Atomic.set t.stopping true)))
      [ Sys.sigterm; Sys.sigint ];
  claim_socket path;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock listen_fd;
  Unix.bind listen_fd (Unix.ADDR_UNIX path);
  Unix.listen listen_fd 128;
  t.started <- Monoclock.now_ns ();
  (match on_ready with Some f -> f () | None -> ());
  let conns : (int, conn) Hashtbl.t = Hashtbl.create 64 in
  let next_conn = ref 0 in
  let listening = ref true in
  let accept_all () =
    let rec go () =
      match Unix.accept listen_fd with
      | fd, _ ->
          Unix.set_nonblock fd;
          t.total_conns <- t.total_conns + 1;
          t.live_conns <- t.live_conns + 1;
          incr next_conn;
          Hashtbl.replace conns !next_conn
            {
              fd;
              rbuf = Buffer.create 256;
              wbuf = Buffer.create 256;
              woff = 0;
              closed = false;
              draining = false;
            };
          go ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error ((ECONNABORTED | EINTR), _, _) -> go ()
      | exception Unix.Unix_error ((EMFILE | ENFILE), _, _) ->
          (* fd exhaustion under a connection flood must shed load, not
             kill the daemon: leave the backlog where it is and let this
             tick's replies/reaps free descriptors; the pause keeps the
             loop from spinning hot on the still-readable listen fd *)
          Unix.sleepf 0.05
      | exception Unix.Unix_error _ -> ()
    in
    go ()
  in
  (* The self-pipe: a worker writes one byte per finished compile, so
     the select below returns for it. It outlives the pool, whose
     shutdown runs every submitted compile before joining. *)
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ wake_r; wake_w ])
  @@ fun () ->
  Sxe_par.Pool.with_pool ~dedicated:true ~jobs:t.config.jobs (fun pool ->
      let quit = ref false in
      while not !quit do
        let stopping = Atomic.get t.stopping in
        if stopping && !listening then begin
          listening := false;
          try Unix.close listen_fd with Unix.Unix_error _ -> ()
        end;
        let live =
          Hashtbl.fold (fun _ c acc -> if c.closed then acc else c :: acc) conns []
        in
        (* while draining, stop reading: only fully-received requests
           are served *)
        let rds =
          (wake_r :: (if !listening then [ listen_fd ] else []))
          @
          if stopping then []
          else
            List.filter_map
              (fun c -> if c.draining then None else Some c.fd)
              live
        in
        let wrs =
          List.filter_map
            (fun c -> if flushed c then None else Some c.fd)
            live
        in
        let readable, writable, _ =
          match Unix.select rds wrs [] 0.25 with
          | r -> r
          | exception Unix.Unix_error (EINTR, _, _) -> ([], [], [])
        in
        (* one connection's failure costs that connection, never the
           loop: anything the per-syscall handlers did not foresee
           drops the connection and the daemon carries on *)
        let guarded c f = try f () with _ -> close_conn t c in
        collect t ~wake:wake_r;
        if !listening && List.mem listen_fd readable then accept_all ();
        List.iter
          (fun c ->
            if List.mem c.fd readable then begin
              guarded c (fun () -> read_conn t c);
              dispatch t pool ~wake:wake_w
            end)
          live;
        (* flush everything with output, not just select's writable set:
           fresh replies were appended after the select call *)
        List.iter
          (fun c ->
            if (not (flushed c)) || List.mem c.fd writable then
              guarded c (fun () -> flush_conn t c);
            (* a protocol-broken connection closes only once its final
               error reply is out *)
            if c.draining && flushed c then close_conn t c)
          live;
        (* reap *)
        Hashtbl.iter
          (fun k c -> if c.closed then Hashtbl.remove conns k)
          (Hashtbl.copy conns);
        if
          Atomic.get t.stopping
          && Hashtbl.length t.inflight = 0
          && Hashtbl.fold (fun _ c acc -> acc && flushed c) conns true
        then begin
          Hashtbl.iter (fun _ c -> close_conn t c) conns;
          Hashtbl.reset conns;
          quit := true
        end
      done);
  try Unix.unlink path with Sys_error _ | Unix.Unix_error _ -> ()

(** Fixed domain pool with chunked scheduling over a mutex/condition work
    queue, a bounded resequencer for ordered result delivery, and
    per-worker GC tuning. See the interface for the contract. *)

(* ------------------------------------------------------------------ *)
(* Environment knob                                                     *)
(* ------------------------------------------------------------------ *)

let env_var = "SXE_JOBS"

let default_jobs () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ ->
          invalid_arg
            (Printf.sprintf "%s=%S: expected an integer >= 1" env_var s))

(* Per-worker minor heap, in words. The runtime default (256k words) is
   sized for one domain; with several allocation-heavy domains every
   arena fill is a stop-the-world handshake, and on few cores each
   handshake costs scheduling quanta. 2^20 words (8 MB) per worker cuts
   the handshake rate ~4x on the evaluation matrix. *)
let minor_words = 1 lsl 20

(* ------------------------------------------------------------------ *)
(* Pool                                                                 *)
(* ------------------------------------------------------------------ *)

(* A task executes one chunk; it receives the id of the worker running
   it (for the per-worker counters) and never raises: item failures are
   stored in the batch's result slots. *)
type task = Run of (int -> unit) | Quit

type t = {
  jobs : int;  (** requested degree *)
  n_domains : int;  (** workers actually spawned *)
  chunk_override : int option;  (** [?chunk] *)
  queue : task Queue.t;  (** guarded by [lock] *)
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable workers : unit Domain.t list;
  mutable live : bool;  (** guarded by [lock] *)
  mutable saved_space_overhead : int option;  (** restored at shutdown *)
  (* cumulative counters; slot [w] is written by worker [w] only, under
     [lock] (queue_waits) or the current batch's lock (the rest) *)
  c_tasks : int array;
  c_chunks : int array;
  c_queue_waits : int array;
  c_throttle_waits : int array;
  c_busy_s : float array;
  mutable c_chunk : int;  (** chunk size of the most recent batch *)
  mutable c_max_buffered : int;
}

(* The OCaml runtime supports at most 128 simultaneous domains; leave
   headroom for the caller and anything else the process spawned. *)
let max_workers = 120

let auto_chunk ~domains ~n =
  let d = max 1 domains in
  max 1 (min 64 (n / (8 * d)))

let worker_loop p ~wid =
  (* Retune this domain's minor heap before touching any work: GC
     parameters of a fresh domain are the single-domain defaults. *)
  (let g = Gc.get () in
   if g.Gc.minor_heap_size < minor_words then
     Gc.set { g with Gc.minor_heap_size = minor_words });
  let rec take () =
    (* [p.lock] held *)
    match Queue.take_opt p.queue with
    | Some t ->
        Mutex.unlock p.lock;
        t
    | None ->
        if not p.live then begin
          (* shutdown broadcast with an empty queue: exit even if our
             Quit was consumed by a sibling that woke first *)
          Mutex.unlock p.lock;
          Quit
        end
        else begin
          p.c_queue_waits.(wid) <- p.c_queue_waits.(wid) + 1;
          Condition.wait p.nonempty p.lock;
          take ()
        end
  in
  let rec go () =
    Mutex.lock p.lock;
    match take () with
    | Quit -> ()
    | Run f ->
        f wid;
        go ()
  in
  go ()

let create ?(clamp = true) ?chunk ~jobs () =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be at least 1";
  (match chunk with
  | Some c when c < 1 -> invalid_arg "Pool.create: chunk must be at least 1"
  | _ -> ());
  let cores = Domain.recommended_domain_count () in
  let n_domains =
    let d = min jobs max_workers in
    let d = if clamp then min d cores else d in
    if d <= 1 then 0 else d
  in
  let p =
    {
      jobs;
      n_domains;
      chunk_override = chunk;
      queue = Queue.create ();
      lock = Mutex.create ();
      nonempty = Condition.create ();
      workers = [];
      live = true;
      saved_space_overhead = None;
      c_tasks = Array.make n_domains 0;
      c_chunks = Array.make n_domains 0;
      c_queue_waits = Array.make n_domains 0;
      c_throttle_waits = Array.make n_domains 0;
      c_busy_s = Array.make n_domains 0.0;
      c_chunk = 1;
      c_max_buffered = 0;
    }
  in
  if n_domains > 0 then begin
    (* Major-GC pacing is a global knob: with several domains promoting
       into the shared heap, the default space_overhead triggers major
       cycles (each with stop-the-world phases) far too often. Raise it
       while the pool is alive; shutdown restores the previous value. *)
    let g = Gc.get () in
    if g.Gc.space_overhead < 200 then begin
      p.saved_space_overhead <- Some g.Gc.space_overhead;
      Gc.set { g with Gc.space_overhead = 200 }
    end;
    p.workers <-
      List.init n_domains (fun wid ->
          Domain.spawn (fun () -> worker_loop p ~wid))
  end;
  p

let jobs p = p.jobs
let domains p = p.n_domains

type stats = {
  domains : int;
  chunk : int;
  tasks : int array;
  chunks : int array;
  queue_waits : int array;
  throttle_waits : int array;
  busy_s : float array;
  max_buffered : int;
}

let stats p =
  Mutex.lock p.lock;
  let s =
    {
      domains = p.n_domains;
      chunk = p.c_chunk;
      tasks = Array.copy p.c_tasks;
      chunks = Array.copy p.c_chunks;
      queue_waits = Array.copy p.c_queue_waits;
      throttle_waits = Array.copy p.c_throttle_waits;
      busy_s = Array.copy p.c_busy_s;
      max_buffered = p.c_max_buffered;
    }
  in
  Mutex.unlock p.lock;
  s

let shutdown p =
  let was_live =
    Mutex.lock p.lock;
    let l = p.live in
    if l then begin
      p.live <- false;
      (* Quit per worker for prompt wakeup; the live re-check in [take]
         covers a worker whose Quit was raced away by a sibling. *)
      List.iter (fun _ -> Queue.push Quit p.queue) p.workers;
      Condition.broadcast p.nonempty
    end;
    Mutex.unlock p.lock;
    l
  in
  if was_live then begin
    List.iter Domain.join p.workers;
    p.workers <- [];
    match p.saved_space_overhead with
    | Some so ->
        p.saved_space_overhead <- None;
        Gc.set { (Gc.get ()) with Gc.space_overhead = so }
    | None -> ()
  end

let with_pool ?clamp ?chunk ~jobs f =
  let p = create ?clamp ?chunk ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f p)

let check_live p =
  Mutex.lock p.lock;
  let l = p.live in
  Mutex.unlock p.lock;
  if not l then invalid_arg "Pool: batch submitted after shutdown"

let consume_map (type b) p (f : 'a -> b) ~(consume : int -> b -> unit) (xs : 'a list) =
  check_live p;
  let arr = Array.of_list xs in
  let n = Array.length arr in
  if p.n_domains = 0 || n <= 1 then begin
    (* the exact sequential path: compute one, deliver one, advance *)
    p.c_chunk <- 1;
    Array.iteri (fun i x -> consume i (f x)) arr
  end
  else begin
    let chunk =
      match p.chunk_override with
      | Some c -> c
      | None -> auto_chunk ~domains:p.n_domains ~n
    in
    (* Workers may run at most [window] items ahead of the consume
       cursor: finished-but-unconsumed results stay bounded however slow
       the consumer is. Any chunk containing the cursor satisfies
       [lo <= consumed], so the bound can never deadlock. *)
    let window = max 64 (2 * chunk * p.n_domains) in
    let results : (b, exn * Printexc.raw_backtrace) result option array =
      Array.make n None
    in
    let batch_lock = Mutex.create () in
    let ready = Condition.create () in
    let room = Condition.create () in
    let consumed = ref 0 in
    let published = ref 0 in
    let abandoned = ref false in
    let task lo hi wid =
      Mutex.lock batch_lock;
      while (not !abandoned) && lo > !consumed + window do
        p.c_throttle_waits.(wid) <- p.c_throttle_waits.(wid) + 1;
        Condition.wait room batch_lock
      done;
      Mutex.unlock batch_lock;
      (* monotonic: [busy_s] must never go negative or jump under an
         NTP step mid-batch *)
      let t0 = Sxe_util.Monoclock.now_ns () in
      let local = Array.init (hi - lo) (fun k ->
          match f arr.(lo + k) with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ()))
      in
      let dt = Sxe_util.Monoclock.elapsed_s t0 in
      Mutex.lock batch_lock;
      for k = lo to hi - 1 do
        results.(k) <- Some local.(k - lo)
      done;
      published := !published + (hi - lo);
      let buffered = !published - !consumed in
      if buffered > p.c_max_buffered then p.c_max_buffered <- buffered;
      p.c_tasks.(wid) <- p.c_tasks.(wid) + (hi - lo);
      p.c_chunks.(wid) <- p.c_chunks.(wid) + 1;
      p.c_busy_s.(wid) <- p.c_busy_s.(wid) +. dt;
      Condition.broadcast ready;
      Mutex.unlock batch_lock
    in
    p.c_chunk <- chunk;
    Mutex.lock p.lock;
    let i = ref 0 in
    while !i < n do
      let lo = !i and hi = min n (!i + chunk) in
      Queue.push (Run (fun wid -> task lo hi wid)) p.queue;
      i := hi
    done;
    Condition.broadcast p.nonempty;
    Mutex.unlock p.lock;
    (* Deliver in index order as each result lands. On a worker error,
       stop delivering but keep draining so the batch fully retires (the
       pool stays reusable), then re-raise the lowest-index exception —
       the one a sequential run would have surfaced. If [consume] itself
       raises, mark the batch abandoned so throttled workers drain
       without waiting on a cursor that will never advance. *)
    let first_error = ref None in
    Fun.protect
      ~finally:(fun () ->
        Mutex.lock batch_lock;
        abandoned := true;
        Condition.broadcast room;
        Mutex.unlock batch_lock)
      (fun () ->
        for i = 0 to n - 1 do
          Mutex.lock batch_lock;
          let rec await () =
            match results.(i) with
            | Some r ->
                results.(i) <- None;
                r
            | None ->
                Condition.wait ready batch_lock;
                await ()
          in
          let r = await () in
          consumed := i + 1;
          Condition.broadcast room;
          Mutex.unlock batch_lock;
          match (r, !first_error) with
          | Ok v, None -> consume i v
          | Ok _, Some _ -> ()
          | Error eb, None -> first_error := Some eb
          | Error _, Some _ -> ()
        done);
    match !first_error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let map p f xs =
  let out = Array.make (List.length xs) None in
  consume_map p f ~consume:(fun i v -> out.(i) <- Some v) xs;
  Array.to_list (Array.map Option.get out)

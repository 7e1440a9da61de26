(* A [sxopt serve] child process and the benchmark's side of its socket.

   The benchmark is the only client. It keeps at most two connections
   and multiplexes them on its one thread with [select]: each
   connection has a send buffer, so a daemon that stops reading while
   it compiles never blocks the load generator, and replies are read as
   whole lines and handed to the caller. *)

module Json = Sxe_serve.Json
module Monoclock = Sxe_util.Monoclock

type t = { pid : int; socket : string }

(* Children not yet reaped; whatever way the benchmark exits, none is
   left running. *)
let live = ref []

let reaped pid = live := List.filter (( <> ) pid) !live

let kill_and_wait pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  reaped pid

let () = at_exit (fun () -> List.iter kill_and_wait !live)

type conn = {
  fd : Unix.file_descr;
  out : Buffer.t;
  mutable off : int;
  inb : Buffer.t;
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  Unix.set_nonblock fd;
  { fd; out = Buffer.create 4096; off = 0; inb = Buffer.create 4096 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  Buffer.add_string c.out line;
  Buffer.add_char c.out '\n'

let pending_out c = Buffer.length c.out > c.off

let flush c =
  if pending_out c then
    match
      Unix.write_substring c.fd (Buffer.contents c.out) c.off (Buffer.length c.out - c.off)
    with
    | n ->
        c.off <- c.off + n;
        if c.off = Buffer.length c.out then begin
          Buffer.clear c.out;
          c.off <- 0
        end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()

let chunk = Bytes.create 65536

(* Read what is available; return the complete lines. *)
let read_lines c =
  let rec fill () =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> failwith "daemon closed the connection"
    | n ->
        Buffer.add_subbytes c.inb chunk 0 n;
        if n = Bytes.length chunk then fill ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  in
  fill ();
  let s = Buffer.contents c.inb in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some last ->
      Buffer.clear c.inb;
      Buffer.add_substring c.inb s (last + 1) (String.length s - last - 1);
      String.split_on_char '\n' (String.sub s 0 last)

(* One select round over [conns], waiting at most [timeout] seconds:
   push out pending bytes, then pass each complete reply line to
   [on_line]. *)
let pump conns ~timeout ~on_line =
  List.iter flush conns;
  let rds = List.map (fun c -> c.fd) conns in
  let wrs = List.filter_map (fun c -> if pending_out c then Some c.fd else None) conns in
  match Unix.select rds wrs [] (Float.max 0.0 timeout) with
  | exception Unix.Unix_error (EINTR, _, _) -> ()
  | readable, writable, _ ->
      List.iter
        (fun c ->
          if List.mem c.fd writable then flush c;
          if List.mem c.fd readable then List.iter (on_line c) (read_lines c))
        conns

(* Send one request and wait for its reply (no other request in flight
   on [c]). *)
let request ?(timeout = 60.0) c j =
  send c (Json.to_string j);
  let reply = ref None in
  let t0 = Monoclock.now_ns () in
  while !reply = None do
    if Monoclock.elapsed_s t0 > timeout then failwith "daemon did not answer in time";
    pump [ c ] ~timeout:0.05 ~on_line:(fun _ line -> reply := Some line)
  done;
  Json.parse (Option.get !reply)

let ping = Json.Obj [ ("op", Json.Str "ping") ]

(* Start [sxopt serve] with [jobs] workers on [socket] and return once
   it answers a ping. *)
let spawn ~sxopt ~socket ~jobs =
  (try Sys.remove socket with Sys_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process sxopt
      [| sxopt; "serve"; "--socket"; socket; "--jobs"; string_of_int jobs |]
      devnull devnull devnull
  in
  Unix.close devnull;
  live := pid :: !live;
  let t0 = Monoclock.now_ns () in
  let rec wait () =
    match connect socket with
    | c ->
        let pong = request c ping in
        close c;
        if Json.bool "pong" pong <> Some true then begin
          kill_and_wait pid;
          failwith ("unexpected ping reply: " ^ Json.to_string pong)
        end
    | exception Unix.Unix_error _ ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            reaped pid;
            failwith (sxopt ^ " serve exited during start-up"));
        if Monoclock.elapsed_s t0 > 30.0 then begin
          kill_and_wait pid;
          failwith "daemon did not start within 30 s"
        end;
        Unix.sleepf 0.002;
        wait ()
  in
  wait ();
  { pid; socket }

(* Peak resident set of the daemon, in MB. *)
let peak_rss_mb t = Measure.peak_rss_mb (Printf.sprintf "/proc/%d/status" t.pid)

(* Graceful drain (SIGTERM), then wait for the exit; SIGKILL if the
   drain takes longer than 10 s. *)
let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let t0 = Monoclock.now_ns () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ ->
        if Monoclock.elapsed_s t0 > 10.0 then kill_and_wait t.pid
        else begin
          Unix.sleepf 0.01;
          wait ()
        end
    | _ -> reaped t.pid
  in
  wait ();
  try Sys.remove t.socket with Sys_error _ -> ()

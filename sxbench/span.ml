(* In-memory span recorder for the traced replay.

   A span is one timed call into a layer's public function: its name
   (["<layer>.<call>"]), start and stop on the monotonic clock, the
   minor-heap words allocated while it was open, the span that was open
   when it started, and the request it belongs to. Spans stay in memory
   until the run ends; [write] dumps them as one JSON document.

   Self time is a span's duration minus the part its children cover.
   Children nest strictly inside their parent (the recorder is a call
   stack on one domain), so that part is the sum of the children's
   durations. Allocation is attributed the same way.

   A recorder that is [off] runs the wrapped call and records nothing,
   so one replay function serves the traced and the untraced pass. *)

module Json = Sxe_serve.Json
module Monoclock = Sxe_util.Monoclock

type span = {
  name : string;
  req : int;
  parent : int;  (* index into the recorder's spans, -1 for a root *)
  start_ns : int64;
  mutable stop_ns : int64;
  mutable minor_words : float;
}

type t = {
  on : bool;
  mutable spans : span array;
  mutable len : int;
  mutable stack : int list;
  mutable req : int;
  counters : (string, float) Hashtbl.t;
}

let make on =
  { on; spans = [||]; len = 0; stack = []; req = -1; counters = Hashtbl.create 16 }

let create () = make true
let off () = make false

(* Spans opened from here on belong to request [id]. *)
let set_request t id = t.req <- id

let push t s =
  if t.len = Array.length t.spans then begin
    let bigger = Array.make (max 1024 (2 * t.len)) s in
    Array.blit t.spans 0 bigger 0 t.len;
    t.spans <- bigger
  end;
  t.spans.(t.len) <- s;
  t.len <- t.len + 1;
  t.len - 1

let with_ t name f =
  if not t.on then f ()
  else begin
    let parent = match t.stack with i :: _ -> i | [] -> -1 in
    let w0 = Gc.minor_words () in
    let i =
      push t
        {
          name;
          req = t.req;
          parent;
          start_ns = Monoclock.now_ns ();
          stop_ns = 0L;
          minor_words = 0.0;
        }
    in
    t.stack <- i :: t.stack;
    let close () =
      let s = t.spans.(i) in
      s.stop_ns <- Monoclock.now_ns ();
      s.minor_words <- Gc.minor_words () -. w0;
      t.stack <- List.tl t.stack
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* Add [v] to the named counter (recorded only when tracing). *)
let count t name v =
  if t.on then
    Hashtbl.replace t.counters name
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt t.counters name))

let counter t name = Option.value ~default:0.0 (Hashtbl.find_opt t.counters name)
let dur_ns s = Int64.to_float (Int64.sub s.stop_ns s.start_ns)

type self = { mutable self_ns : float; mutable self_words : float; mutable calls : int }

(* Per span name: self time, self allocation and call count. *)
let self_by_name t : (string, self) Hashtbl.t =
  let child_ns = Array.make t.len 0.0 and child_w = Array.make t.len 0.0 in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    if s.parent >= 0 then begin
      child_ns.(s.parent) <- child_ns.(s.parent) +. dur_ns s;
      child_w.(s.parent) <- child_w.(s.parent) +. s.minor_words
    end
  done;
  let tbl = Hashtbl.create 32 in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    let a =
      match Hashtbl.find_opt tbl s.name with
      | Some a -> a
      | None ->
          let a = { self_ns = 0.0; self_words = 0.0; calls = 0 } in
          Hashtbl.replace tbl s.name a;
          a
    in
    a.self_ns <- a.self_ns +. (dur_ns s -. child_ns.(i));
    a.self_words <- a.self_words +. (s.minor_words -. child_w.(i));
    a.calls <- a.calls + 1
  done;
  tbl

(* Share of the root spans' time that their children account for, over
   the roots that have children (a root without children is itself a
   layer call). *)
let coverage t =
  let covered = Array.make t.len 0.0 in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    if s.parent >= 0 then covered.(s.parent) <- covered.(s.parent) +. dur_ns s
  done;
  let num = ref 0.0 and den = ref 0.0 in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    if s.parent < 0 && covered.(i) > 0.0 then begin
      num := !num +. covered.(i);
      den := !den +. dur_ns s
    end
  done;
  if !den = 0.0 then 0.0 else !num /. !den

let to_json t : Json.t =
  let base = if t.len = 0 then 0L else t.spans.(0).start_ns in
  let rel ns = Json.Int (Int64.sub ns base) in
  Json.Obj
    [
      ( "spans",
        Json.Arr
          (List.init t.len (fun i ->
               let s = t.spans.(i) in
               Json.Obj
                 [
                   ("id", Json.Int (Int64.of_int i));
                   ("name", Json.Str s.name);
                   ("req", Json.Int (Int64.of_int s.req));
                   ("parent", Json.Int (Int64.of_int s.parent));
                   ("start_ns", rel s.start_ns);
                   ("end_ns", rel s.stop_ns);
                   ("minor_words", Json.Float s.minor_words);
                 ])) );
      ( "counters",
        Json.Obj
          (List.sort compare
             (Hashtbl.fold (fun k v acc -> (k, Json.Float v) :: acc) t.counters [])) );
    ]

let write t path =
  let oc = open_out path in
  output_string oc (Json.to_string (to_json t));
  output_char oc '\n';
  close_out oc

type 'a t = {
  table : (string, 'a) Hashtbl.t;
  order : string Queue.t;  (* insertion order, for FIFO eviction *)
  max_entries : int;
  mutable hits : int;
  mutable misses : int;
}

let create ?(max_entries = 4096) () =
  { table = Hashtbl.create 256; order = Queue.create (); max_entries; hits = 0; misses = 0 }

let key ~variant ~arch ~maxlen ~emit ~source =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            Compile_one.pipeline_rev;
            variant;
            arch;
            Int64.to_string maxlen;
            string_of_bool emit;
            source;
          ]))

let find t k =
  match Hashtbl.find_opt t.table k with
  | Some v ->
      t.hits <- t.hits + 1;
      Some v
  | None ->
      t.misses <- t.misses + 1;
      None

let add t k v =
  if t.max_entries > 0 && not (Hashtbl.mem t.table k) then begin
    if Hashtbl.length t.table >= t.max_entries then begin
      let oldest = Queue.pop t.order in
      Hashtbl.remove t.table oldest
    end;
    Hashtbl.replace t.table k v;
    Queue.push k t.order
  end

let hits t = t.hits
let misses t = t.misses
let size t = Hashtbl.length t.table

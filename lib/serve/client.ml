module Json = Sxe_util.Json

type t = { sock : Unix.file_descr; mutable residue : string; mutable closed : bool }

let connect path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect sock (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  { sock; residue = ""; closed = false }

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.sock with Unix.Unix_error _ -> ()
  end

let fd t = t.sock

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

let read_line t =
  let buf = Bytes.create 65536 in
  let rec go acc =
    match String.index_opt acc '\n' with
    | Some i ->
        t.residue <- String.sub acc (i + 1) (String.length acc - i - 1);
        String.sub acc 0 i
    | None -> (
        match Unix.read t.sock buf 0 (Bytes.length buf) with
        | 0 -> raise End_of_file
        | n -> go (acc ^ Bytes.sub_string buf 0 n))
  in
  go t.residue

let request t line =
  let line = if String.length line > 0 && line.[String.length line - 1] = '\n' then line else line ^ "\n" in
  write_all t.sock line;
  read_line t

let compile ?(variant = "all") ?(arch = "ia64") ?(emit = false) ?id t source =
  let id_field = match id with None -> "" | Some i -> Printf.sprintf "\"id\":\"%s\"," (Json.escape i) in
  request t
    (Printf.sprintf
       "{%s\"op\":\"compile\",\"variant\":\"%s\",\"arch\":\"%s\",\"emit\":%b,\"source\":\"%s\"}"
       id_field (Json.escape variant) (Json.escape arch) emit (Json.escape source))

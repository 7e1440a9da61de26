(* Prints the JSON array read on stdin one element per line, so the
   golden copies of [sxopt certify --json] and [sxopt lint --json]
   (golden/dune) diff cell by cell instead of as one long line. *)

let () =
  match Sxe_util.Json.parse (In_channel.input_all stdin) with
  | Sxe_util.Json.Arr cells ->
      List.iter (fun c -> print_endline (Sxe_util.Json.to_string c)) cells
  | _ -> failwith "json_cells: stdin is not a JSON array"

(** Whole programs: a set of functions plus global scalar declarations.

    Globals model the paper's [i = mem] examples and give the workloads a
    place to park cross-call state; each is a 64-bit cell read/written at
    the width of its declared type. *)

type t = {
  funcs : (string, Cfg.func) Hashtbl.t;
  globals : (string, Types.ty) Hashtbl.t;
  mutable main : string;
}

let create ?(main = "main") () =
  { funcs = Hashtbl.create 16; globals = Hashtbl.create 16; main }

let add_func t (f : Cfg.func) = Hashtbl.replace t.funcs f.name f

let find_func t name =
  match Hashtbl.find_opt t.funcs name with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Prog.find_func: no function %S" name)

let find_func_opt t name = Hashtbl.find_opt t.funcs name
let declare_global t name ty = Hashtbl.replace t.globals name ty

let iter_funcs fn t =
  (* deterministic order for printing and experiments *)
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) t.funcs [] in
  List.iter (fun n -> fn (Hashtbl.find t.funcs n)) (List.sort compare names)

let fold_funcs fn acc t =
  let acc = ref acc in
  iter_funcs (fun f -> acc := fn !acc f) t;
  !acc

(** Total instruction count over all functions. *)
let size t = fold_funcs (fun n f -> n + Cfg.instr_count f) 0 t

(** Whole programs: a set of functions plus global scalar/array-reference
    declarations (the paper's [i = mem] cells). *)

type t = {
  funcs : (string, Cfg.func) Hashtbl.t;
  globals : (string, Types.ty) Hashtbl.t;
  mutable main : string;
}

val create : ?main:string -> unit -> t
val add_func : t -> Cfg.func -> unit
val find_func : t -> string -> Cfg.func
val find_func_opt : t -> string -> Cfg.func option
val declare_global : t -> string -> Types.ty -> unit

val iter_funcs : (Cfg.func -> unit) -> t -> unit
(** Deterministic (name-sorted) iteration. *)

val fold_funcs : ('a -> Cfg.func -> 'a) -> 'a -> t -> 'a
val size : t -> int

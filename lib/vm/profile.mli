(** Branch-profile collection, mirroring the paper's combined
    interpreter/dynamic compiler: the interpreter gathers per-edge
    statistics that sharpen the branch probabilities behind order
    determination. A profile can additionally carry a dispatch-pair
    histogram and per-opcode dispatch counts for the pre-decoded engine
    (profile-guided superinstruction fusion); opcode ids are opaque
    here — {!Precode} owns the mapping and the recording. *)

type t = {
  edges : (string * int * int, int64 ref) Hashtbl.t;
  mutable pairs : int array;
      (** flattened [nops * nops] dispatch-pair counts; [[||]] = off *)
  mutable ops : int array;  (** dispatches per opcode id; [[||]] = off *)
  mutable pairs_nops : int;
}

val create : unit -> t

val enable_pairs : t -> nops:int -> unit
(** Enable dispatch-pair collection over [nops] opcode ids. *)

val pairs_enabled : t -> bool

val pair_counts : t -> ((int * int) * int) list
(** Nonzero [((first_id, second_id), count)] pairs, count descending,
    deterministic tie order. *)

val op_counts : t -> (int * int) list
(** Nonzero per-opcode dispatch counts [(id, count)], count descending,
    deterministic tie order. *)

val record : t -> string -> src:int -> dst:int -> unit

val probability : t -> string -> src:int -> dst:int -> float option
(** Measured probability of the edge, or [None] if its source block was
    never executed. *)

val as_source : t -> string -> src:int -> dst:int -> float option
(** Curried adapter with the signature {!Sxe_core.Pass.profile_source}. *)

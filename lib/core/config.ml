(** Optimizer configuration: one value per variant measured in Tables 1-2.

    The flags mirror the paper's breakdown rows exactly; {!variants}
    enumerates the twelve measured configurations and {!all} builds them
    in the tables' row order. *)

type conversion = Gen_def | Gen_use
type elimination = Elim_none | Elim_bwd_flow | Elim_ud_du
type insertion = Ins_none | Ins_simple | Ins_pde

type t = {
  name : string;
  conversion : conversion;  (** Step 1 strategy (Figure 6) *)
  elimination : elimination;  (** Step 3 engine *)
  insertion : insertion;  (** phase (3)-1 *)
  order : bool;  (** phase (3)-2: hottest-region-first *)
  array : bool;  (** AnalyzeARRAY / Theorems 1-4 *)
  pre : bool;  (** Step 2 PRE (on for every measured variant) *)
  inline : bool;
      (** method inlining before Step 1 (off in the paper's measured
          pipeline; an ablation shows its effect on ABI-boundary
          extensions) *)
  arch : Arch.t;
  maxlen : int64;
      (** maximum array length assumed for Theorem 4; Java's is
          0x7fffffff, smaller values model the configurable-memory
          scenario of Figure 10 *)
}

let default_maxlen = Sxe_ir.Types.max_array_length

let make ?(arch = Arch.ia64) ?(maxlen = default_maxlen) ?(pre = true) ?(inline = false)
    ~name ~conversion ~elimination ~insertion ~order ~array () =
  { name; conversion; elimination; insertion; order; array; pre; inline; arch; maxlen }

let baseline ?arch ?maxlen () =
  make ?arch ?maxlen ~name:"baseline" ~conversion:Gen_def ~elimination:Elim_none
    ~insertion:Ins_none ~order:false ~array:false ()

let gen_use ?arch ?maxlen () =
  make ?arch ?maxlen ~name:"gen use" ~conversion:Gen_use ~elimination:Elim_none
    ~insertion:Ins_none ~order:false ~array:false ()

let first_algorithm ?arch ?maxlen () =
  make ?arch ?maxlen ~name:"first algorithm" ~conversion:Gen_def ~elimination:Elim_bwd_flow
    ~insertion:Ins_none ~order:false ~array:false ()

let ud_du ?arch ?maxlen ~name ~insertion ~order ~array () =
  make ?arch ?maxlen ~name ~conversion:Gen_def ~elimination:Elim_ud_du ~insertion ~order
    ~array ()

let basic_ud_du ?arch ?maxlen () =
  ud_du ?arch ?maxlen ~name:"basic ud/du" ~insertion:Ins_none ~order:false ~array:false ()

let insert ?arch ?maxlen () =
  ud_du ?arch ?maxlen ~name:"insert" ~insertion:Ins_simple ~order:false ~array:false ()

let order ?arch ?maxlen () =
  ud_du ?arch ?maxlen ~name:"order" ~insertion:Ins_none ~order:true ~array:false ()

let insert_order ?arch ?maxlen () =
  ud_du ?arch ?maxlen ~name:"insert, order" ~insertion:Ins_simple ~order:true ~array:false ()

let array ?arch ?maxlen () =
  ud_du ?arch ?maxlen ~name:"array" ~insertion:Ins_none ~order:false ~array:true ()

let array_insert ?arch ?maxlen () =
  ud_du ?arch ?maxlen ~name:"array, insert" ~insertion:Ins_simple ~order:false ~array:true ()

let array_order ?arch ?maxlen () =
  ud_du ?arch ?maxlen ~name:"array, order" ~insertion:Ins_none ~order:true ~array:true ()

let all_pde ?arch ?maxlen () =
  ud_du ?arch ?maxlen ~name:"all, using PDE" ~insertion:Ins_pde ~order:true ~array:true ()

let new_all ?arch ?maxlen () =
  ud_du ?arch ?maxlen ~name:"new algorithm (all)" ~insertion:Ins_simple ~order:true
    ~array:true ()

(** Tags of the twelve variants measured in Tables 1-2. *)
type variant =
  [ `Baseline
  | `Gen_use
  | `First
  | `Basic
  | `Insert
  | `Order
  | `Insert_order
  | `Array
  | `Array_insert
  | `Array_order
  | `All_pde
  | `All ]

(** The twelve variants in the tables' row order: CLI/request name, tag
    and constructor (whose [name] is the paper's row label). The only
    enumeration of the set. *)
let variants : (string * variant * (?arch:Arch.t -> ?maxlen:int64 -> unit -> t)) list =
  [
    ("baseline", `Baseline, baseline);
    ("gen-use", `Gen_use, gen_use);
    ("first", `First, first_algorithm);
    ("basic", `Basic, basic_ud_du);
    ("insert", `Insert, insert);
    ("order", `Order, order);
    ("insert-order", `Insert_order, insert_order);
    ("array", `Array, array);
    ("array-insert", `Array_insert, array_insert);
    ("array-order", `Array_order, array_order);
    ("all-pde", `All_pde, all_pde);
    ("all", `All, new_all);
  ]

let variant_names = List.map (fun (n, v, _) -> (n, v)) variants
let variant_of_name n = List.assoc_opt n variant_names

let of_variant ?arch ?maxlen (v : variant) =
  let _, _, make = List.find (fun (_, v', _) -> v' = v) variants in
  make ?arch ?maxlen ()

let all ?arch ?maxlen () = List.map (fun (_, _, make) -> make ?arch ?maxlen ()) variants

(** extension beyond the paper: the full algorithm preceded by method
    inlining, which deletes ABI-boundary extensions outright *)
let new_all_inline ?arch ?maxlen () =
  make ?arch ?maxlen ~inline:true ~name:"all + inlining" ~conversion:Gen_def
    ~elimination:Elim_ud_du ~insertion:Ins_simple ~order:true ~array:true ()

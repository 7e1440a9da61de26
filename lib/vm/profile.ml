(** Branch-profile collection, mirroring the paper's combined
    interpreter/dynamic compiler: the interpreter "gathers statistical data
    on conditional branches" and hands it to the compiler, which uses it to
    sharpen the branch probabilities behind order determination.

    Beyond branch edges, a profile can carry a {e dispatch-pair histogram}:
    counts of consecutively dispatched opcode pairs in the pre-decoded
    engine, keyed by small integer opcode ids, next to the count of
    dispatches per opcode. The histogram is what makes
    superinstruction fusion profile-guided — it names the adjacent pairs
    that dominate a workload's dispatch stream (see
    [sxopt bench --dispatch-counts]). Ids are opaque here; {!Precode} owns
    the id <-> opcode-name mapping and the recording itself. *)

type t = {
  edges : (string * int * int, int64 ref) Hashtbl.t;
  mutable pairs : int array;
      (** flattened [nops * nops] pair counts, row = first opcode of the
          pair; [[||]] when dispatch-pair collection is disabled *)
  mutable ops : int array;
      (** dispatches per opcode id, control transfers included; [[||]]
          when disabled *)
  mutable pairs_nops : int;  (** row width of [pairs]; 0 when disabled *)
}

let create () = { edges = Hashtbl.create 256; pairs = [||]; ops = [||]; pairs_nops = 0 }

(** Enable dispatch-pair collection over an id space of [nops] opcodes
    (idempotent; resizing resets the counts). *)
let enable_pairs t ~nops =
  if nops <= 0 then invalid_arg "Profile.enable_pairs: nops must be positive";
  if t.pairs_nops <> nops then begin
    t.pairs <- Array.make (nops * nops) 0;
    t.ops <- Array.make nops 0;
    t.pairs_nops <- nops
  end

let pairs_enabled t = t.pairs_nops > 0

(** Raw nonzero pair counts as [((first_id, second_id), count)], count
    descending (ties broken by id order, so output is deterministic). *)
let pair_counts t : ((int * int) * int) list =
  let n = t.pairs_nops in
  let acc = ref [] in
  for a = n - 1 downto 0 do
    for b = n - 1 downto 0 do
      let c = t.pairs.((a * n) + b) in
      if c > 0 then acc := ((a, b), c) :: !acc
    done
  done;
  List.stable_sort (fun (_, c1) (_, c2) -> compare c2 c1) !acc

(** Nonzero per-opcode dispatch counts as [(id, count)], count
    descending (ties in id order). *)
let op_counts t : (int * int) list =
  let acc = ref [] in
  for id = Array.length t.ops - 1 downto 0 do
    if t.ops.(id) > 0 then acc := (id, t.ops.(id)) :: !acc
  done;
  List.stable_sort (fun (_, c1) (_, c2) -> compare c2 c1) !acc

let record t fname ~src ~dst =
  match Hashtbl.find_opt t.edges (fname, src, dst) with
  | Some r -> r := Int64.add !r 1L
  | None -> Hashtbl.replace t.edges (fname, src, dst) (ref 1L)

(** Measured probability of the edge [src -> dst], if [src] was executed. *)
let probability t fname ~src ~dst =
  let total = ref 0L and this = ref 0L in
  Hashtbl.iter
    (fun (fn, s, d) r ->
      if fn = fname && s = src then begin
        total := Int64.add !total !r;
        if d = dst then this := Int64.add !this !r
      end)
    t.edges;
  if Int64.compare !total 0L > 0 then
    Some (Int64.to_float !this /. Int64.to_float !total)
  else None

(** Curried adapter with the signature {!Sxe_core.Pass.profile_source}. *)
let as_source t : string -> src:int -> dst:int -> float option =
 fun fname ~src ~dst -> probability t fname ~src ~dst

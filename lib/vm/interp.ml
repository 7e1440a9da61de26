(** The 64-bit machine interpreter.

    Registers are 64-bit; every operation follows {!Sxe_ir.Eval}'s
    full-register semantics, so a 32-bit value with garbage upper bits
    behaves exactly as it would on IA64-class hardware. This is what makes
    differential testing meaningful: the unoptimized (fully extended)
    program and any soundly-optimized variant must produce identical
    observables — printed output, checksum, exception — while an unsound
    elimination shows up as divergent output or a [wild-access] trap (a
    bounds-checked array access whose full 64-bit index register disagrees
    with its sign-extended low half would touch unrelated memory on real
    hardware; we trap it).

    Two modes:
    - [`Faithful] — the 64-bit machine described above;
    - [`Canonical] — a reference "32-bit machine": every 32-bit definition
      is immediately sign-extended. Running the {e unconverted} IR in this
      mode gives source-language (MiniJ/Java) semantics.

    The interpreter also counts executed instructions, executed sign
    extensions by width (the quantity of Tables 1-2), and cost-model
    cycles (Figures 13/14), and can record branch-edge profiles for
    profile-directed order determination. *)

open Sxe_util
open Sxe_ir
open Sxe_ir.Types

exception Trap = Precode.Trap

type cell = Precode.cell =
  | IArr of { elem : aelem; data : int64 array }
  | FArr of float array
  | RArr of int array

type outcome = Precode.outcome = {
  output : string;
  checksum : int64;
  trap : string option;
  ret : int64 option;
  executed : int64;
  sext32 : int64;  (** dynamic count of executed 32-bit sign extensions *)
  sext_sub : int64;  (** executed 8/16-bit sign extensions *)
  zext32 : int64;  (** executed 32-bit zero extensions *)
  zext_sub : int64;  (** executed 8/16-bit zero extensions *)
  cycles : int64;  (** cost-model cycles *)
}

type state = {
  prog : Prog.t;
  mutable depth : int;  (** current call depth, for stack-overflow traps *)
  heap : cell option Vec.t;
  gi : (string, int64) Hashtbl.t;
  gf : (string, float) Hashtbl.t;
  buf : Buffer.t;
  mutable checksum : int64;
  mutable executed : int64;
  mutable sext32 : int64;
  mutable sext_sub : int64;
  mutable zext32 : int64;
  mutable zext_sub : int64;
  mutable cycles : int64;
  mode : [ `Faithful | `Canonical ];
  profile : Profile.t option;
  fuel : int64;
  count_cycles : bool;
  trace : Format.formatter option;
  watch : (string -> int -> int64 -> unit) option;
      (** called as [watch fname iid value] after every executed
          instruction that defines an integer register; used by the
          shrinker's value-snapshot constant folding *)
}

type varg = VI of int64 | VF of float

let max_alloc = Precode.max_alloc
let max_depth = Precode.max_depth
let elem_load = Precode.elem_load
let elem_store = Precode.elem_store
let checksum_mix = Precode.checksum_mix

let rec exec_func st fname (args : varg list) : varg option =
  st.depth <- st.depth + 1;
  if st.depth > max_depth then raise (Trap "stack-overflow");
  Fun.protect ~finally:(fun () -> st.depth <- st.depth - 1) @@ fun () ->
  let f = Prog.find_func st.prog fname in
  let n = Cfg.num_regs f in
  let ri = Array.make (max n 1) 0L in
  let rf = Array.make (max n 1) 0.0 in
  (* bind positionally via an array: [List.nth_opt args k] per parameter
     was quadratic in arity *)
  let argv = Array.of_list args in
  let nargs = Array.length argv in
  List.iteri
    (fun k (r, ty) ->
      if k >= nargs then raise (Trap "bad-call-arity")
      else
        match (ty, argv.(k)) with
        | F64, VF v -> rf.(r) <- v
        | F64, _ -> raise (Trap "bad-call-arity")
        | _, VI v -> ri.(r) <- v
        | _, _ -> raise (Trap "bad-call-arity"))
    f.Cfg.params;
  let canonical = st.mode = `Canonical in
  let set_i r v =
    ri.(r) <- (if canonical && Cfg.reg_ty f r = I32 then Eval.sext32 v else v)
  in
  let charge c = if st.count_cycles then st.cycles <- Int64.add st.cycles (Int64.of_int c) in
  let tick () =
    st.executed <- Int64.add st.executed 1L;
    if Int64.compare st.executed st.fuel > 0 then raise (Trap "fuel-exhausted")
  in
  let arr_cell h =
    if h = 0L then raise (Trap "null-pointer");
    match Vec.get st.heap (Int64.to_int h - 1) with
    | Some c -> c
    | None -> raise (Trap "bad-handle")
  in
  let cell_len = function
    | IArr { data; _ } -> Array.length data
    | FArr d -> Array.length d
    | RArr d -> Array.length d
  in
  (* bounds check on the sign-extended low 32 bits (IA64 cmp4), then the
     effective address consumes the full register *)
  let checked_index idx_full len =
    let idx32 = Eval.sext32 (Eval.low32 idx_full) in
    if Int64.compare idx32 0L < 0 || Int64.compare idx32 (Int64.of_int len) >= 0 then
      raise (Trap "array-index-out-of-bounds");
    if canonical then Int64.to_int idx32
    else if Int64.equal idx_full idx32 then Int64.to_int idx32
    else raise (Trap "wild-access")
  in
  let exec_instr (i : Instr.t) =
    tick ();
    (match st.trace with
    | Some ppf ->
        Format.fprintf ppf "[%s] %a" fname Printer.pp_instr i;
        (match Instr.def i.Instr.op with
        | Some d when Cfg.reg_ty f d <> F64 ->
            (* value after execution is printed by the next line; show the
               inputs' registers instead to keep this single-pass *)
            Format.fprintf ppf "   ; uses:%a@."
              (Format.pp_print_list ~pp_sep:Format.pp_print_space (fun ppf r ->
                   Format.fprintf ppf " r%d=%Ld" r ri.(r)))
              (Instr.uses i.Instr.op)
        | _ -> Format.fprintf ppf "@.")
    | None -> ());
    (match i.Instr.op with
    | Instr.NewArr { len; _ } ->
        charge (Cost.of_op i.Instr.op ~alloc_len:(Eval.sext32 (Eval.low32 ri.(len))))
    | op -> charge (Cost.of_op op ~alloc_len:0L));
    match i.Instr.op with
    | Instr.Const { dst; ty; v } -> (
        match ty with F64 -> rf.(dst) <- Int64.float_of_bits v | _ -> set_i dst v)
    | Instr.FConst { dst; v } -> rf.(dst) <- v
    | Instr.Mov { dst; src; ty } -> (
        match ty with F64 -> rf.(dst) <- rf.(src) | _ -> set_i dst ri.(src))
    | Instr.Unop { dst; op; src; w } -> set_i dst (Eval.unop op w ri.(src))
    | Instr.Binop { dst; op; l; r; w } -> (
        (* the faithful machine shifts the full register on 32-bit
           [LShr] ({!Eval.binop_faithful}); the canonical machine keeps
           the internally-zero-extending reference semantics *)
        let kernel = if canonical then Eval.binop else Eval.binop_faithful in
        match kernel op w ri.(l) ri.(r) with
        | v -> set_i dst v
        | exception Eval.Division_by_zero -> raise (Trap "division-by-zero"))
    | Instr.Cmp { dst; cond; l; r; w } ->
        set_i dst (if Eval.cmp cond w ri.(l) ri.(r) then 1L else 0L)
    | Instr.Sext { r; from } ->
        (match from with
        | W32 -> st.sext32 <- Int64.add st.sext32 1L
        | _ -> st.sext_sub <- Int64.add st.sext_sub 1L);
        ri.(r) <- Eval.sext_from from ri.(r)
    | Instr.Zext { r; from } ->
        (match from with
        | W32 -> st.zext32 <- Int64.add st.zext32 1L
        | _ -> st.zext_sub <- Int64.add st.zext_sub 1L);
        (* canonical mode re-extends, as after every other I32
           definition: on the 32-bit machine [zextend32] leaves the
           32-bit value unchanged *)
        set_i r (Eval.zext_from from ri.(r))
    | Instr.JustExt _ -> () (* marker: no code, no effect *)
    | Instr.FBinop { dst; op; l; r } -> rf.(dst) <- Eval.fbinop op rf.(l) rf.(r)
    | Instr.FNeg { dst; src } -> rf.(dst) <- -.rf.(src)
    | Instr.FCmp { dst; cond; l; r } ->
        set_i dst (if Eval.fcmp cond rf.(l) rf.(r) then 1L else 0L)
    | Instr.I2D { dst; src } -> rf.(dst) <- Eval.i2d ri.(src)
    | Instr.L2D { dst; src } -> rf.(dst) <- Int64.to_float ri.(src)
    | Instr.D2I { dst; src } -> set_i dst (Eval.d2i rf.(src))
    | Instr.D2L { dst; src } -> set_i dst (Eval.d2l rf.(src))
    | Instr.NewArr { dst; elem; len } ->
        let full = ri.(len) in
        let len32 = Eval.sext32 (Eval.low32 full) in
        if Int64.compare len32 0L < 0 then raise (Trap "negative-array-size");
        if (not canonical) && not (Int64.equal full len32) then raise (Trap "wild-access");
        let n = Int64.to_int len32 in
        if n > max_alloc then raise (Trap "allocation-too-large");
        let cell =
          match elem with
          | AF64 -> FArr (Array.make n 0.0)
          | ARef -> RArr (Array.make n 0)
          | e -> IArr { elem = e; data = Array.make n 0L }
        in
        let h = Vec.push st.heap (Some cell) in
        set_i dst (Int64.of_int (h + 1))
    | Instr.ArrLoad { dst; arr; idx; elem; lext } -> (
        let cell = arr_cell ri.(arr) in
        let k = checked_index ri.(idx) (cell_len cell) in
        match cell with
        | IArr { data; _ } -> set_i dst (elem_load elem lext data.(k))
        | FArr d -> rf.(dst) <- d.(k)
        | RArr d -> set_i dst (Int64.of_int d.(k)))
    | Instr.ArrStore { arr; idx; src; elem } -> (
        let cell = arr_cell ri.(arr) in
        let k = checked_index ri.(idx) (cell_len cell) in
        match cell with
        | IArr { data; _ } -> data.(k) <- elem_store elem ri.(src)
        | FArr d -> d.(k) <- rf.(src)
        | RArr d -> d.(k) <- Int64.to_int ri.(src))
    | Instr.ArrLen { dst; arr } ->
        set_i dst (Int64.of_int (cell_len (arr_cell ri.(arr))))
    | Instr.GLoad { dst; sym; ty; lext } -> (
        match ty with
        | F64 -> rf.(dst) <- (try Hashtbl.find st.gf sym with Not_found -> 0.0)
        | I32 ->
            let cell = try Hashtbl.find st.gi sym with Not_found -> 0L in
            set_i dst (match lext with LZero -> Eval.zext32 cell | LSign -> Eval.sext32 cell)
        | _ ->
            set_i dst (try Hashtbl.find st.gi sym with Not_found -> 0L))
    | Instr.GStore { sym; src; ty } -> (
        match ty with
        | F64 -> Hashtbl.replace st.gf sym rf.(src)
        | I32 -> Hashtbl.replace st.gi sym (Eval.zext32 ri.(src))
        | _ -> Hashtbl.replace st.gi sym ri.(src))
    | Instr.Call { dst; fn; args; ret } -> (
        let actuals =
          List.map (fun (r, ty) -> match ty with F64 -> VF rf.(r) | _ -> VI ri.(r)) args
        in
        match builtin st fn actuals with
        | Some result -> (
            match (dst, result) with
            | Some d, Some (VI v) -> set_i d v
            | Some d, Some (VF v) -> rf.(d) <- v
            | Some _, None -> raise (Trap "missing-return")
            | None, _ -> ())
        | None -> (
            match (exec_func st fn actuals, dst, ret) with
            | Some (VI v), Some d, Some (I32 | I64 | Ref) -> set_i d v
            | Some (VF v), Some d, Some F64 -> rf.(d) <- v
            | _, None, _ -> ()
            | _ -> raise (Trap "bad-return")))
  in
  let exec_instr (i : Instr.t) =
    exec_instr i;
    match st.watch with
    | Some w -> (
        match Instr.def i.Instr.op with
        | Some d when d < Array.length ri && Cfg.reg_ty f d <> F64 ->
            w fname i.Instr.iid ri.(d)
        | _ -> ())
    | None -> ()
  in
  let bid = ref (Cfg.entry f) in
  let result = ref None in
  let running = ref true in
  while !running do
    let b = Cfg.block f !bid in
    List.iter exec_instr (Cfg.body b);
    (* terminators consume fuel too: a loop whose blocks have empty
       bodies must still hit the fuel bound *)
    tick ();
    charge (Cost.of_term (Cfg.term b));
    let goto l =
      (match st.profile with
      | Some p -> Profile.record p fname ~src:!bid ~dst:l
      | None -> ());
      bid := l
    in
    match Cfg.term b with
    | Instr.Jmp l -> goto l
    | Instr.Br { cond; l; r; w; ifso; ifnot } ->
        goto (if Eval.cmp cond w ri.(l) ri.(r) then ifso else ifnot)
    | Instr.Ret None ->
        running := false;
        result := None
    | Instr.Ret (Some (r, ty)) ->
        running := false;
        result := Some (match ty with F64 -> VF rf.(r) | _ -> VI ri.(r))
  done;
  !result

(** Built-in runtime functions. They observe the {e full} argument
    registers — an unsoundly-unextended argument changes the observable
    output, which is the point. *)
and builtin st fn (args : varg list) : varg option option =
  let out s =
    Buffer.add_string st.buf s;
    Buffer.add_char st.buf '\n'
  in
  match (fn, args) with
  | "print_int", [ VI v ] | "print_long", [ VI v ] ->
      out (Int64.to_string v);
      Some None
  | "print_double", [ VF v ] ->
      out (Printf.sprintf "%.6g" v);
      Some None
  | "checksum", [ VI v ] ->
      st.checksum <- checksum_mix st.checksum v;
      Some None
  | "checksum_double", [ VF v ] ->
      st.checksum <- checksum_mix st.checksum (Int64.bits_of_float v);
      Some None
  | ("print_int" | "print_long" | "print_double" | "checksum" | "checksum_double"), _ ->
      raise (Trap "bad-builtin-arity")
  | _ -> None

let builtin_names = Precode.builtin_names

let run_structural ?(mode = `Faithful) ?(fuel = 2_000_000_000L) ?(count_cycles = true)
    ?profile ?trace ?watch (prog : Prog.t) : outcome =
  let st =
    {
      prog;
      depth = 0;
      heap = Vec.create ~dummy:None ();
      gi = Hashtbl.create 16;
      gf = Hashtbl.create 16;
      buf = Buffer.create 256;
      checksum = 0L;
      executed = 0L;
      sext32 = 0L;
      sext_sub = 0L;
      zext32 = 0L;
      zext_sub = 0L;
      cycles = 0L;
      mode;
      profile;
      fuel;
      count_cycles;
      trace;
      watch;
    }
  in
  let trap, ret =
    match exec_func st prog.Prog.main [] with
    | Some (VI v) -> (None, Some v)
    | Some (VF v) -> (None, Some (Int64.bits_of_float v))
    | None -> (None, None)
    | exception Trap t -> (Some t, None)
  in
  {
    output = Buffer.contents st.buf;
    checksum = st.checksum;
    trap;
    ret;
    executed = st.executed;
    sext32 = st.sext32;
    sext_sub = st.sext_sub;
    zext32 = st.zext32;
    zext_sub = st.zext_sub;
    cycles = st.cycles;
  }

(** Engine dispatch. The pre-decoded engine is the default; [trace] and
    [watch] hooks observe individual structural instructions, so runs that
    pass either are routed to the structural engine regardless of
    [engine]. [fuse] selects the pre-decoded engine's superinstruction
    fusion rules (default: the ambient [SXE_FUSE] selection); the
    structural engine ignores it. *)
let run ?mode ?fuel ?count_cycles ?profile ?trace ?watch ?engine ?fuse
    (prog : Prog.t) : outcome =
  let engine =
    if trace <> None || watch <> None then `Structural
    else match engine with Some e -> e | None -> `Precode
  in
  match engine with
  | `Precode ->
      let fuse = match fuse with Some s -> s | None -> Fuse.of_env () in
      Precode.run ?mode ?fuel ?count_cycles ?profile ~fuse prog
  | `Structural -> run_structural ?mode ?fuel ?count_cycles ?profile ?trace ?watch prog

(** Equality of observable behaviour: output, checksum, trap and return
    value. Counters are deliberately excluded. *)
let equivalent (a : outcome) (b : outcome) =
  a.output = b.output && Int64.equal a.checksum b.checksum && a.trap = b.trap && a.ret = b.ret

(* sxbench: the repository benchmark.

     sxbench --workload W --seed N --seconds S --trace 0|1 [--smoke]
             [--sxopt PATH]

   Runs one workload for S seconds on inputs drawn from seed N, checks
   every output, prints each end-to-end metric as
   "name workload value unit" and ends with one JSON line:
   {"correct", "attempted", "failed", "metrics"}. With --trace 1 it then
   replays a fixed prefix of the same inputs in-process, once untraced
   and once with spans, and the JSON line carries the per-layer metrics
   instead (the spans go to .sxbench/trace-W-seedN.json). --smoke
   shrinks set-up and replay and skips the generator-lateness guard,
   for the test suite. Exit code 1 on a wrong answer or an invalid run.

   Workloads (README.md says why each exists):
   - compile-cold: closed loop, 2 connections, every request a salted
     cache miss on a [sxopt serve --jobs 2] child;
   - serve-mixed: open loop, Poisson arrivals at 100 req/s over 2
     pipelined connections, 90% cache hits and 10% salted misses;
   - paper-matrix: in-process rounds of both suites x 12 variants
     through [Experiment.run_suite ~jobs:2];
   - vm-exec: in-process rounds executing 24 programs compiled once
     under "all" at scale 4. *)

open Sxe_core
module Json = Sxe_serve.Json
module Monoclock = Sxe_util.Monoclock
module Registry = Sxe_workloads.Registry
module Experiment = Sxe_harness.Experiment
module Compile_one = Sxe_serve.Compile_one
module Interp = Sxe_vm.Interp

(* ------------------------------------------------------------------ *)
(* Run-wide state                                                      *)
(* ------------------------------------------------------------------ *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref false
let smoke = ref false
let sxopt = ref "_build/default/bin/sxopt.exe"
let work_dir = ".sxbench"

let usage () =
  prerr_endline
    "usage: sxbench --workload compile-cold|serve-mixed|paper-matrix|vm-exec\n\
    \               --seed N --seconds S --trace 0|1 [--smoke] [--sxopt PATH]";
  exit 2

let rec parse_args = function
  | [] -> ()
  | "--workload" :: v :: rest ->
      workload := v;
      parse_args rest
  | "--seed" :: v :: rest ->
      seed := int_of_string v;
      parse_args rest
  | "--seconds" :: v :: rest ->
      seconds := float_of_string v;
      parse_args rest
  | "--trace" :: v :: rest ->
      trace := (match v with "0" -> false | "1" -> true | _ -> usage ());
      parse_args rest
  | "--smoke" :: rest ->
      smoke := true;
      parse_args rest
  | "--sxopt" :: v :: rest ->
      sxopt := v;
      parse_args rest
  | _ -> usage ()

(* Checks that fail the run. A failed check is reported, counted, and
   turns "correct" false; the run still prints its result line. *)
let problems = ref []

let check ok msg =
  if not ok then begin
    if List.length !problems < 20 then prerr_endline ("sxbench: FAIL: " ^ msg);
    problems := msg :: !problems
  end

let time f =
  let t0 = Monoclock.now_ns () in
  let v = f () in
  (Monoclock.elapsed_s t0, v)

(* Set-up [f] runs at least 5 times and for at least 1 s (once in a
   smoke run); the median time is reported, so that one slow start does
   not move the metric, and a set-up of a few milliseconds is timed
   often enough to be steady. [f] returns its result and how to release
   it; only the last result is kept. Returns (median s, count, result). *)
let repeated_setup f =
  let times = ref [] and last = ref None in
  let t0 = Monoclock.now_ns () in
  while
    !times = []
    || ((not !smoke) && (List.length !times < 5 || Monoclock.elapsed_s t0 < 1.0))
  do
    Option.iter (fun (_, release) -> release ()) !last;
    let dt, v = time f in
    times := dt :: !times;
    last := Some v
  done;
  (Measure.median (Array.of_list !times), List.length !times, fst (Option.get !last))

let all_config = Compile_one.config_of `All
let maxlen = Sxe_ir.Types.max_array_length

let sources ~scale = Registry.all ~scale () @ Registry.extras ~scale ()

(* Emitted instructions of a compiled program ([Emit.size] summed). *)
let code_size p =
  Sxe_ir.Prog.fold_funcs
    (fun n f ->
      n + Sxe_codegen.Emit.size (Sxe_codegen.Emit.emit_func ~arch:all_config.Config.arch f))
    0 p

(* Seeded Fisher-Yates shuffle in place. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* The end-to-end metrics, shared by every workload (BENCHMARK.json). *)
type e2e = {
  setup_s : float;
  setup_n : int;
  peak_rss_mb : float;
  throughput : float;  (* work items per second *)
  item_ms : float array;  (* per-item times behind p50_ms and tail_ms *)
  tail_q : float;
  code_size : int;
  dyn_sext32 : int64;
  cycles : int64;
}

(* (name, value, unit, sample count of a timing) *)
let e2e_metrics e =
  let n = Some (Array.length e.item_ms) in
  [
    ("setup_s", e.setup_s, "s", Some e.setup_n);
    ("peak_rss_mb", e.peak_rss_mb, "MB", None);
    ("throughput", e.throughput, "1/s", n);
    ("p50_ms", Measure.median e.item_ms, "ms", n);
    ("tail_ms", Measure.quantile e.item_ms e.tail_q, "ms", n);
    ("code_size", float_of_int e.code_size, "instr", None);
    ("dyn_sext32", Int64.to_float e.dyn_sext32, "count", None);
    ("cycles", Int64.to_float e.cycles, "cycles", None);
  ]

(* What a traced run measured. *)
type traced = {
  rec_ : Span.t;
  plain : float array;  (* untraced replay time of each item, s *)
  traced_s : float;  (* traced replay time of all items *)
  extra : (string * float) list;  (* measured outside the replay *)
}

(* The per-layer metrics, in BENCHMARK.json's order: every one on every
   workload, 0 where the workload does not reach the layer. Times and
   allocation are self time and self allocation per replayed item;
   [serve.*_us] are per call. *)
let layer_metrics (t : traced) =
  let self = Span.self_by_name t.rec_ in
  let per_item v = v /. float_of_int (Array.length t.plain) in
  let get name = Hashtbl.find_opt self name in
  let ms name = match get name with Some a -> per_item (a.Span.self_ns /. 1e6) | None -> 0.0 in
  let mw name =
    match get name with Some a -> per_item (a.Span.self_words /. 1e6) | None -> 0.0
  in
  let mean_us name =
    match get name with
    | Some a -> a.Span.self_ns /. 1e3 /. float_of_int a.Span.calls
    | None -> 0.0
  in
  let counter name = per_item (Span.counter t.rec_ name) in
  let extra name = Option.value ~default:0.0 (List.assoc_opt name t.extra) in
  let minstr_per_s =
    match get "vm.interp" with
    | Some a -> Span.counter t.rec_ "vm.interp.executed" /. (a.Span.self_ns /. 1e3)
    | None -> 0.0
  in
  List.map
    (fun (name, v, unit) -> (name, v, unit, None))
    [
      ("lang.frontend.ms", ms "lang.frontend", "ms");
      ("lang.frontend.alloc_mw", mw "lang.frontend", "Mwords");
      ("ir.clone.ms", ms "ir.clone", "ms");
      ("ir.validate.ms", ms "ir.validate", "ms");
      ("analysis.summary.ms", ms "analysis.summary", "ms");
      ("core.convert.ms", ms "core.convert", "ms");
      ("core.eliminate.ms", ms "core.eliminate", "ms");
      ("core.eliminate.chains_ms", counter "core.eliminate.chains_ms", "ms");
      ("core.eliminate.alloc_mw", mw "core.eliminate", "Mwords");
      ("core.eliminate.eliminated", counter "core.eliminate.eliminated", "count");
      ("core.demand.ms", ms "core.demand", "ms");
      ("opt.pipeline.ms", ms "opt.pipeline", "ms");
      ("opt.pipeline.alloc_mw", mw "opt.pipeline", "Mwords");
      ("opt.pipeline.removed", counter "opt.pipeline.removed", "count");
      ("check.certify.ms", ms "check.certify", "ms");
      ("check.certify.alloc_mw", mw "check.certify", "Mwords");
      ("check.certify.errors", counter "check.certify.errors", "count");
      ("codegen.emit.ms", ms "codegen.emit", "ms");
      ("codegen.emit.instrs", counter "codegen.emit.instrs", "count");
      ("vm.interp.ms", ms "vm.interp", "ms");
      ("vm.interp.minstr_per_s", minstr_per_s, "Minstr/s");
      ("vm.interp.alloc_mw", mw "vm.interp", "Mwords");
      ("vm.interp.executed", counter "vm.interp.executed", "count");
      ("vm.interp.sext32", counter "vm.interp.sext32", "count");
      ("harness.reference.ms", ms "harness.reference", "ms");
      ("harness.profile.ms", ms "harness.profile", "ms");
      ("par.pool.busy_share", extra "par.pool.busy_share", "ratio");
      ("par.pool.queue_waits", extra "par.pool.queue_waits", "count");
      ("par.pool.throttle_waits", extra "par.pool.throttle_waits", "count");
      ("serve.server.batches", extra "serve.server.batches", "count");
      ("serve.server.mean_batch", extra "serve.server.mean_batch", "count");
      ("serve.server.max_queue_depth", extra "serve.server.max_queue_depth", "count");
      ("serve.server.coalesced", extra "serve.server.coalesced", "count");
      ("serve.cache.hit_ratio", extra "serve.cache.hit_ratio", "ratio");
      ("serve.json.parse_us", mean_us "serve.json.parse", "us");
      ("serve.cache.key_us", mean_us "serve.cache.key", "us");
      ("serve.overhead_p50_ms", extra "serve.overhead_p50_ms", "ms");
      ("trace.coverage", Span.coverage t.rec_, "ratio");
      ("trace.overhead", (t.traced_s /. Array.fold_left ( +. ) 0.0 t.plain) -. 1.0, "ratio");
    ]

(* Replay each of [items] untraced and traced, alternating which pass
   goes first. [f r i] replays item [i] with recorder [r]. *)
let replay_pair ~items f =
  let rec_ = Span.create () in
  let traced = ref 0.0 in
  let plain =
    List.mapi
      (fun k i ->
        let run_plain () = fst (time (fun () -> f (Span.off ()) i)) in
        let run_traced () =
          Span.set_request rec_ i;
          traced := !traced +. fst (time (fun () -> f rec_ i))
        in
        if k mod 2 = 0 then begin
          let p = run_plain () in
          run_traced ();
          p
        end
        else begin
          run_traced ();
          run_plain ()
        end)
      items
  in
  { rec_; plain = Array.of_list plain; traced_s = !traced; extra = [] }

(* ------------------------------------------------------------------ *)
(* Expected outputs for the served programs                            *)
(* ------------------------------------------------------------------ *)

type expected = {
  w : Registry.t;
  stats : (string * int) list;
  asm : string;
  size : int;
  sext32 : int64;
  cycles : int64;
}

(* The in-process compile of each source under "all" (what every reply
   must equal), executed on the VM and compared with the canonical
   reference: a reply is correct when it matches a program that runs
   correctly. *)
let expected_outputs ws =
  List.map
    (fun (w : Registry.t) ->
      match Compile_one.run_source ~emit:true ~config:all_config ~maxlen w.source with
      | Error msg -> failwith (w.name ^ ": " ^ msg)
      | Ok o ->
          check (o.Compile_one.errors = []) (w.name ^ ": does not certify in-process");
          let out = Interp.run ~mode:`Faithful ~fuel:Replay.fuel o.Compile_one.prog in
          check
            (Interp.equivalent (Experiment.reference_of w) out)
            (w.name ^ ": compiled program differs from the canonical reference");
          {
            w;
            stats = Replay.stats_fields o.Compile_one.stats;
            asm = Option.get o.Compile_one.asm;
            size = code_size o.Compile_one.prog;
            sext32 = out.Interp.sext32;
            cycles = out.Interp.cycles;
          })
    ws

(* The reply's "stats" object in [Replay.stats_fields]' shape. *)
let reply_stats j =
  match Json.member "stats" j with
  | None -> None
  | Some s ->
      let int k = Option.map Int64.to_int (Json.int k s) in
      let theorems =
        match Json.member "theorems" s with
        | Some (Json.Arr [ Json.Int a; Json.Int b; Json.Int c; Json.Int d ]) ->
            List.map Int64.to_int [ a; b; c; d ]
        | _ -> []
      in
      let named =
        List.filter_map
          (fun k -> Option.map (fun v -> (k, v)) (int k))
          [
            "generated"; "generated_zext"; "inserted"; "dummies"; "eliminated";
            "eliminated_zext"; "eliminated_by_pre"; "remaining"; "remaining_zext";
          ]
      in
      Some (named @ List.mapi (fun i v -> (Printf.sprintf "theorem%d" (i + 1), v)) theorems)

(* Is [j] the correct reply to a compile of [e]'s program? *)
let reply_ok (e : expected) ~cached j =
  Json.bool "ok" j = Some true
  && Json.bool "certified" j = Some true
  && Json.bool "cached" j = Some cached
  && reply_stats j = Some e.stats
  && Json.str "asm" j = Some e.asm

let compile_request ~id source =
  Json.Obj
    [
      ("id", Json.Int (Int64.of_int id));
      ("op", Json.Str "compile");
      ("variant", Json.Str "all");
      ("arch", Json.Str "ia64");
      ("emit", Json.Bool true);
      ("source", Json.Str source);
    ]

let salted src tag i = Printf.sprintf "%s// sxbench %s seed=%d req=%d\n" src tag !seed i

(* ------------------------------------------------------------------ *)
(* Daemon workloads                                                    *)
(* ------------------------------------------------------------------ *)

type server_counters = {
  hits : int;
  misses : int;
  coalesced : int;
  compiles : int;
  batches : int;
  max_queue_depth : int;
  refused : int;  (* overloaded + timeouts *)
}

let server_counters c =
  let m =
    Daemon.request c (Json.Obj [ ("op", Json.Str "metrics") ])
    |> Json.member "metrics" |> Option.get
  in
  let geti k o = Int64.to_int (Option.value ~default:0L (Json.int k o)) in
  let cache = Option.get (Json.member "cache" m) in
  {
    hits = geti "hits" cache;
    misses = geti "misses" cache;
    coalesced = geti "coalesced" m;
    compiles = geti "compiles" m;
    batches = geti "batches" m;
    max_queue_depth = geti "max_queue_depth" m;
    refused = geti "overloaded" m + geti "timeouts" m;
  }

let diff a b =
  {
    hits = b.hits - a.hits;
    misses = b.misses - a.misses;
    coalesced = b.coalesced - a.coalesced;
    compiles = b.compiles - a.compiles;
    batches = b.batches - a.batches;
    max_queue_depth = b.max_queue_depth;
    refused = b.refused - a.refused;
  }

let server_layers (d : server_counters) =
  [
    ("serve.server.batches", float_of_int d.batches);
    ( "serve.server.mean_batch",
      float_of_int d.compiles /. float_of_int (max 1 d.batches) );
    ("serve.server.max_queue_depth", float_of_int d.max_queue_depth);
    ("serve.server.coalesced", float_of_int d.coalesced);
    ( "serve.cache.hit_ratio",
      float_of_int d.hits /. float_of_int (max 1 (d.hits + d.misses)) );
  ]

(* Closed loop over [conns]: [next c k] sends the k-th request on [c]
   and says whether it did; [on_line] sees every reply line. *)
let closed_loop conns ~next ~on_line =
  let inflight = ref 0 and k = ref 0 in
  let start c =
    if next c !k then begin
      incr k;
      incr inflight
    end
  in
  List.iter start conns;
  let t0 = Monoclock.now_ns () in
  while !inflight > 0 do
    if Monoclock.elapsed_s t0 > !seconds +. 120.0 then failwith "replies stopped arriving";
    Daemon.pump conns ~timeout:0.05 ~on_line:(fun c line ->
        decr inflight;
        on_line line;
        start c)
  done

(* A run file under .sxbench/ (relative, so socket paths stay short). *)
let work_file name =
  (try Unix.mkdir work_dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
  Filename.concat work_dir name

(* Spawn the daemon and warm it with one compile of each [warm] source
   (compile-cold salts them so that they miss the measured keys). *)
let start_daemon ~warm =
  let socket = work_file (Printf.sprintf "%s-%d.sock" !workload (Unix.getpid ())) in
  let d = Daemon.spawn ~sxopt:!sxopt ~socket ~jobs:2 in
  let conns = [ Daemon.connect d.Daemon.socket; Daemon.connect d.Daemon.socket ] in
  let warm = Array.of_list warm in
  closed_loop conns
    ~next:(fun c k ->
      k < Array.length warm
      && (Daemon.send c (Json.to_string (compile_request ~id:k warm.(k)));
          true))
    ~on_line:(fun line ->
      check (Json.bool "ok" (Json.parse line) = Some true) "warm-up compile failed");
  (d, conns)

let stop_daemon (d, conns) =
  List.iter Daemon.close conns;
  Daemon.stop d

type sent = { id : int; line : string; src : int; miss : bool; mutable due : float }

(* Seeded draws from [0, n) in shuffled rounds of all n values, so every
   seed gives every source the same share of a run. *)
let balanced rng n =
  let perm = Array.init n Fun.id and pos = ref n in
  fun () ->
    if !pos = n then begin
      shuffle rng perm;
      pos := 0
    end;
    incr pos;
    perm.(!pos - 1)

let daemon_workload ~open_loop =
  let ws = sources ~scale:1 in
  let expect = Array.of_list (expected_outputs ws) in
  let nsrc = Array.length expect in
  let rng = Random.State.make [| !seed |] in
  let warm =
    Array.to_list
      (Array.map
         (fun e -> if open_loop then e.w.source else salted e.w.source "warm" 0)
         expect)
  in
  let setup_s, setup_n, (d, conns) =
    repeated_setup (fun () ->
        let dc = start_daemon ~warm in
        (dc, fun () -> stop_daemon dc))
  in
  let before = server_counters (List.hd conns) in
  let sent = Hashtbl.create 4096 in
  (* replies are only timestamped while the load runs and checked after
     it, so the generator spends its time sending *)
  let replies = ref [] and outstanding = ref 0 and late = ref [] in
  let on_line line =
    decr outstanding;
    replies := (Monoclock.now_s (), line) :: !replies
  in
  let next_hit = balanced rng nsrc and next_miss = balanced rng nsrc in
  let request i ~miss =
    let src = if miss then next_miss () else next_hit () in
    let body =
      if miss then salted expect.(src).w.source (if open_loop then "miss" else "cold") i
      else expect.(src).w.source
    in
    { id = i; line = Json.to_string (compile_request ~id:i body); src; miss; due = 0.0 }
  in
  let issue c s =
    Hashtbl.replace sent s.id s;
    incr outstanding;
    Daemon.send c s.line
  in
  let all_sent, t0 =
    if open_loop then begin
      (* 100 req/s: a Poisson process with exactly 100 x seconds arrivals
         (sorted uniform times); one miss in every ten, at a seeded place *)
      let n = max 1 (int_of_float (100.0 *. !seconds)) in
      let offsets = Array.init n (fun _ -> Random.State.float rng !seconds) in
      Array.sort compare offsets;
      let miss_at = Array.init ((n + 9) / 10) (fun _ -> Random.State.int rng 10) in
      let reqs = Array.init n (fun i -> request i ~miss:(miss_at.(i / 10) = i mod 10)) in
      let conns_a = Array.of_list conns in
      let t0 = Monoclock.now_s () in
      Array.iteri (fun i s -> s.due <- t0 +. offsets.(i)) reqs;
      let next = ref 0 in
      let deadline = t0 +. !seconds +. 120.0 in
      while !next < n || !outstanding > 0 do
        let now = Monoclock.now_s () in
        if now > deadline then failwith "replies stopped arriving";
        while !next < n && reqs.(!next).due <= now do
          let s = reqs.(!next) in
          late := ((now -. s.due) *. 1e3) :: !late;
          issue conns_a.(!next mod 2) s;
          incr next
        done;
        let wait = if !next < n then reqs.(!next).due -. Monoclock.now_s () else 0.05 in
        Daemon.pump conns ~timeout:(Float.min 0.05 wait) ~on_line:(fun _ -> on_line)
      done;
      (reqs, t0)
    end
    else begin
      let t0 = Monoclock.now_s () in
      let issued = ref [] in
      closed_loop conns
        ~next:(fun c i ->
          if Monoclock.now_s () -. t0 < !seconds then begin
            let s = request i ~miss:true in
            s.due <- Monoclock.now_s ();
            issued := s :: !issued;
            issue c s;
            true
          end
          else false)
        ~on_line;
      (Array.of_list (List.rev !issued), t0)
    end
  in
  let elapsed = Monoclock.now_s () -. t0 in
  let after = server_counters (List.hd conns) in
  let peak_rss_mb = Daemon.peak_rss_mb d in
  stop_daemon (d, conns);
  let n = Array.length all_sent in
  let nmiss = Array.fold_left (fun a s -> if s.miss then a + 1 else a) 0 all_sent in
  let delta = diff before after in
  check (delta.refused = 0) "the daemon refused requests (overloaded or timed out)";
  check (delta.coalesced = 0) "distinct requests were coalesced";
  check (delta.misses = nmiss)
    (Printf.sprintf "%d cache misses, expected %d" delta.misses nmiss);
  check (delta.hits = n - nmiss) (Printf.sprintf "%d cache hits, expected %d" delta.hits (n - nmiss));
  (* a smoke run checks outputs only, and shares the machine with the
     rest of the test suite *)
  if open_loop && not !smoke then begin
    let p99_late = Measure.quantile (Array.of_list !late) 0.99 in
    check (p99_late <= 5.0)
      (Printf.sprintf "the generator ran %.2f ms late at p99 (limit 5 ms)" p99_late)
  end;
  let failed = ref 0 in
  let lat =
    List.rev !replies
    |> List.filter_map (fun (now, line) ->
           let j = Json.parse line in
           match
             Option.bind (Json.int "id" j) (fun id -> Hashtbl.find_opt sent (Int64.to_int id))
           with
           | Some s ->
               Hashtbl.remove sent s.id;
               if not (reply_ok expect.(s.src) ~cached:(not s.miss) j) then begin
                 incr failed;
                 check false
                   (Printf.sprintf "request %d: wrong or mis-routed reply for %s" s.id
                      expect.(s.src).w.name)
               end;
               Some (s.id, (now -. s.due) *. 1e3)
           | None ->
               check false ("reply with an unknown or repeated id: " ^ Json.to_string j);
               None)
    |> Array.of_list
  in
  check (Hashtbl.length sent = 0)
    (Printf.sprintf "%d request(s) got no reply" (Hashtbl.length sent));
  let e2e =
    {
      setup_s;
      setup_n;
      peak_rss_mb;
      throughput = float_of_int n /. elapsed;
      item_ms = Array.map snd lat;
      tail_q = 0.99;
      code_size = Array.fold_left (fun a e -> a + e.size) 0 expect;
      dyn_sext32 = Array.fold_left (fun a e -> Int64.add a e.sext32) 0L expect;
      cycles = Array.fold_left (fun a e -> Int64.add a e.cycles) 0L expect;
    }
  in
  let traced () =
    let count = min n (if !smoke then 8 else if open_loop then 600 else 100) in
    let items = List.init count Fun.id in
    (* what the daemon's event loop and, for a miss, one pool worker
       do with the request line *)
    let replay r i =
      let s = all_sent.(i) in
      Span.with_ r "serve.request" (fun () ->
          let j = Span.with_ r "serve.json.parse" (fun () -> Json.parse s.line) in
          let source = Option.get (Json.str "source" j) in
          ignore
            (Span.with_ r "serve.cache.key" (fun () ->
                 Sxe_serve.Cache.key ~variant:"all" ~arch:"ia64" ~maxlen ~emit:true ~source));
          if s.miss then
            match Replay.compile_source r ~emit_asm:true ~config:all_config ~maxlen source with
            | Ok o ->
                let e = expect.(s.src) in
                check
                  (Replay.stats_fields o.Compile_one.stats = e.stats
                  && o.Compile_one.asm = Some e.asm
                  && o.Compile_one.errors = [])
                  ("replay differs from the daemon's answer for " ^ e.w.name)
            | Error msg -> check false msg)
    in
    let t = replay_pair ~items replay in
    (* client and replay latency of the same requests *)
    let client_ms =
      let by_id = Hashtbl.create n in
      Array.iter (fun (id, ms) -> Hashtbl.replace by_id id ms) lat;
      Array.of_list (List.map (Hashtbl.find by_id) items)
    in
    {
      t with
      extra =
        ( "serve.overhead_p50_ms",
          Measure.median client_ms -. (1e3 *. Measure.median t.plain) )
        :: server_layers delta;
    }
  in
  (n, !failed, e2e, traced)

(* ------------------------------------------------------------------ *)
(* In-process workloads                                                *)
(* ------------------------------------------------------------------ *)

let own_peak_rss_mb () = Measure.peak_rss_mb "/proc/self/status"

(* Rounds until [seconds] have passed (at least one). *)
let rounds f =
  let t0 = Monoclock.now_ns () in
  let times = ref [] in
  while !times = [] || Monoclock.elapsed_s t0 < !seconds do
    let dt, () = time f in
    times := (dt *. 1e3) :: !times
  done;
  Array.of_list (List.rev !times)

let all_name = all_config.Config.name

let paper_matrix () =
  let suites = [ Registry.Jbytemark; Registry.Specjvm ] in
  let ws = Registry.all () in
  let setup_s, setup_n, () =
    repeated_setup (fun () ->
        List.iter
          (fun (w : Registry.t) ->
            Sxe_ir.Clone.freeze_prog (Sxe_lang.Frontend.compile w.source))
          ws;
        ((), ignore))
  in
  let first = ref None and busy = ref 0.0 and wall = ref 0.0 in
  let queue_waits = ref 0 and throttle_waits = ref 0 and nrounds = ref 0 in
  let cells = ref 0 and failed = ref 0 in
  let round () =
    let t0 = Monoclock.now_ns () in
    let stats = ref [] in
    let m =
      List.concat_map
        (fun suite ->
          Experiment.run_suite ~jobs:2 ~stats:(fun s -> stats := s :: !stats) suite)
        suites
    in
    wall := !wall +. Monoclock.elapsed_s t0;
    incr nrounds;
    List.iter
      (fun (s : Sxe_par.Pool.stats) ->
        let total = Array.fold_left ( + ) 0 in
        busy := !busy +. (Array.fold_left ( +. ) 0.0 s.busy_s /. float_of_int (max 1 s.domains));
        queue_waits := !queue_waits + total s.queue_waits;
        throttle_waits := !throttle_waits + total s.throttle_waits)
      !stats;
    List.iter
      (fun (wname, ms) ->
        List.iter
          (fun (x : Experiment.measurement) ->
            incr cells;
            if not x.equivalent then begin
              incr failed;
              check false (Printf.sprintf "%s / %s: not equivalent to the reference" wname x.variant)
            end)
          ms)
      m;
    match !first with
    | None -> first := Some m
    | Some m0 ->
        check
          (List.for_all2
             (fun (_, a) (_, b) -> List.for_all2 Replay.same_measurement a b)
             m0 m)
          "matrix counters differ between rounds"
  in
  let times = rounds round in
  let m = Option.get !first in
  let under_all f =
    List.fold_left
      (fun acc (_, ms) ->
        List.fold_left
          (fun acc (x : Experiment.measurement) ->
            if x.variant = all_name then Int64.add acc (f x) else acc)
          acc ms)
      0L m
  in
  let code_size =
    List.fold_left
      (fun n (w : Registry.t) ->
        n
        + code_size
            (Compile_one.run_prog ~config:all_config ~maxlen (Experiment.base_of w))
              .Compile_one.prog)
      0 ws
  in
  let e2e =
    {
      setup_s;
      setup_n;
      peak_rss_mb = own_peak_rss_mb ();
      throughput = float_of_int !cells /. (Array.fold_left ( +. ) 0.0 times /. 1e3);
      item_ms = times;
      tail_q = 0.9;
      code_size;
      dyn_sext32 = under_all (fun x -> x.dyn_sext32);
      cycles = under_all (fun x -> x.cycles);
    }
  in
  let traced () =
    (* The replay covers a whole round (a smoke run, one workload per
       suite), each pass on a fresh domain so the per-domain caches
       start cold as on a pool worker. *)
    let rws =
      if !smoke then List.map (fun s -> List.find (fun (w : Registry.t) -> w.suite = s) ws) suites
      else ws
    in
    let replay r _ =
      let got = Domain.join (Domain.spawn (fun () -> Replay.matrix_round r rws)) in
      List.iter
        (fun (wname, ms) ->
          check
            (List.for_all2 Replay.same_measurement (List.assoc wname m) ms)
            ("replay differs from Experiment.run_suite on " ^ wname))
        got
    in
    let nr = float_of_int !nrounds in
    {
      (replay_pair ~items:[ 0; 1 ] replay) with
      extra =
        [
          ("par.pool.busy_share", !busy /. !wall);
          ("par.pool.queue_waits", float_of_int !queue_waits /. nr);
          ("par.pool.throttle_waits", float_of_int !throttle_waits /. nr);
        ];
    }
  in
  (!cells, !failed, e2e, traced)

let vm_exec () =
  let scale = if !smoke then 1 else 4 in
  let ws = Array.of_list (sources ~scale) in
  let refs = Array.map Experiment.reference_of ws in
  let failed = ref 0 and runs = ref 0 in
  let run_checked i prog =
    let out = Interp.run prog in
    incr runs;
    if not (Interp.equivalent refs.(i) out) then begin
      incr failed;
      check false (ws.(i).Registry.name ^ ": differs from the canonical reference")
    end;
    out
  in
  let setup_s, setup_n, progs =
    repeated_setup (fun () ->
        let progs =
          Array.map
            (fun (w : Registry.t) ->
              (Compile_one.run_prog ~config:all_config ~maxlen
                 (Sxe_lang.Frontend.compile w.source))
                .Compile_one.prog)
            ws
        in
        Array.iteri (fun i p -> ignore (run_checked i p)) progs;
        (progs, ignore))
  in
  let rng = Random.State.make [| !seed |] in
  let counters = ref None in
  let order = Array.init (Array.length ws) Fun.id in
  let round () =
    shuffle rng order;
    let s = ref 0L and c = ref 0L in
    Array.iter
      (fun i ->
        let out = run_checked i progs.(i) in
        s := Int64.add !s out.Interp.sext32;
        c := Int64.add !c out.Interp.cycles)
      order;
    match !counters with
    | None -> counters := Some (!s, !c)
    | Some sc -> check (sc = (!s, !c)) "VM counters differ between rounds"
  in
  let runs0 = !runs in
  let times = rounds round in
  let measured = !runs - runs0 in
  let code_size = Array.fold_left (fun n p -> n + code_size p) 0 progs in
  let e2e =
    {
      setup_s;
      setup_n;
      peak_rss_mb = own_peak_rss_mb ();
      throughput = float_of_int measured /. (Array.fold_left ( +. ) 0.0 times /. 1e3);
      item_ms = times;
      tail_q = 0.9;
      code_size;
      dyn_sext32 = fst (Option.get !counters);
      cycles = snd (Option.get !counters);
    }
  in
  let traced () =
    (* per program: the set-up (compile and warming run) and one
       measured run *)
    let replay r _ =
      Array.iteri
        (fun i (w : Registry.t) ->
          Span.with_ r "vm.program" (fun () ->
              match Replay.compile_source r ~config:all_config ~maxlen w.source with
              | Ok o ->
                  check (o.Compile_one.errors = []) (w.name ^ ": replay does not certify");
                  for _ = 1 to 2 do
                    check
                      (Interp.equivalent refs.(i) (Replay.interp r o.Compile_one.prog))
                      (w.name ^ ": replayed run differs from the canonical reference")
                  done
              | Error msg -> check false msg))
        ws
    in
    replay_pair ~items:[ 0; 1 ] replay
  in
  (measured, !failed, e2e, traced)

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  parse_args (List.tl (Array.to_list Sys.argv));
  (* [Fuse.of_env] is a [Lazy.t]: two pool domains forcing it at once
     for their first VM run raise [CamlinternalLazy.Undefined]. Force it
     here, before any domain starts. *)
  ignore (Sxe_vm.Fuse.of_env ());
  let run =
    match !workload with
    | "compile-cold" -> fun () -> daemon_workload ~open_loop:false
    | "serve-mixed" -> fun () -> daemon_workload ~open_loop:true
    | "paper-matrix" -> paper_matrix
    | "vm-exec" -> vm_exec
    | _ -> usage ()
  in
  let attempted, failed, metrics =
    try
      let attempted, failed, e2e, traced = run () in
      if not !trace then (attempted, failed, e2e_metrics e2e)
      else begin
        let t = traced () in
        let path = work_file (Printf.sprintf "trace-%s-seed%d.json" !workload !seed) in
        Span.write t.rec_ path;
        Printf.eprintf "sxbench: spans written to %s\n" path;
        (attempted, failed, layer_metrics t)
      end
    with e ->
      Printf.eprintf "sxbench: %s: %s\n" !workload (Printexc.to_string e);
      exit 1
  in
  List.iter
    (fun (name, v, unit, n) ->
      Printf.printf "%s %s %.6g %s%s\n" name !workload v unit
        (match n with Some n -> Printf.sprintf " (n=%d)" n | None -> ""))
    metrics;
  let correct = !problems = [] in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int (Int64.of_int attempted));
            ("failed", Json.Int (Int64.of_int failed));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, v, unit, _) ->
                     (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]))
                   metrics) );
          ]));
  if not correct then exit 1

(** Tests for the [lib/par] domain pool and the determinism contract of
    the drivers built on it: whatever [jobs], fuzz campaigns and the
    certify matrix must produce byte-identical output to a sequential
    run. *)

open Sxe_par

(* ------------------------------------------------------------------ *)
(* Pool unit tests                                                      *)
(* ------------------------------------------------------------------ *)

let test_map_ordered () =
  Pool.with_pool ~clamp:false ~jobs:4 (fun p ->
      let xs = List.init 100 Fun.id in
      Alcotest.(check (list int))
        "results in input order"
        (List.map (fun x -> x * x) xs)
        (Pool.map p (fun x -> x * x) xs))

let test_map_empty_and_reuse () =
  Pool.with_pool ~clamp:false ~jobs:3 (fun p ->
      Alcotest.(check (list int)) "empty input" [] (Pool.map p Fun.id []);
      (* the same pool serves several batches *)
      for k = 1 to 5 do
        let xs = List.init (10 * k) (fun i -> i * k) in
        Alcotest.(check (list int))
          (Printf.sprintf "batch %d" k)
          xs (Pool.map p Fun.id xs)
      done)

exception Boom of int

let test_exception_propagation () =
  Pool.with_pool ~clamp:false ~jobs:4 (fun p ->
      (match Pool.map p (fun x -> if x = 3 then raise (Boom x) else x) (List.init 8 Fun.id) with
      | _ -> Alcotest.fail "expected Boom to propagate"
      | exception Boom 3 -> ());
      (* two failing tasks: the lowest index wins, deterministically, as
         in a sequential run *)
      (match
         Pool.map p (fun x -> if x = 2 || x = 5 then raise (Boom x) else x) (List.init 8 Fun.id)
       with
      | _ -> Alcotest.fail "expected Boom to propagate"
      | exception Boom i -> Alcotest.(check int) "lowest failing index" 2 i);
      (* the pool survives a failed batch *)
      Alcotest.(check (list int))
        "pool usable after failure" [ 0; 1; 2 ]
        (Pool.map p Fun.id [ 0; 1; 2 ]))

let test_consume_in_order () =
  Pool.with_pool ~clamp:false ~jobs:4 (fun p ->
      let seen = ref [] in
      Pool.consume_map p Fun.id
        ~consume:(fun i v -> seen := (i, v) :: !seen)
        (List.init 50 Fun.id);
      Alcotest.(check (list (pair int int)))
        "consumed in ascending index order"
        (List.init 50 (fun i -> (i, i)))
        (List.rev !seen))

let test_jobs_one_is_sequential () =
  Pool.with_pool ~jobs:1 (fun p ->
      Alcotest.(check int) "jobs" 1 (Pool.jobs p);
      (* strict compute/consume interleaving: the exact sequential path *)
      let order = ref [] in
      Pool.consume_map p
        (fun x ->
          order := ("f", x) :: !order;
          x)
        ~consume:(fun _ v -> order := ("c", v) :: !order)
        [ 0; 1; 2 ];
      Alcotest.(check (list (pair string int)))
        "compute i, consume i, advance"
        [ ("f", 0); ("c", 0); ("f", 1); ("c", 1); ("f", 2); ("c", 2) ]
        (List.rev !order))

(* ------------------------------------------------------------------ *)
(* Chunked scheduling                                                   *)
(* ------------------------------------------------------------------ *)

let test_auto_chunk () =
  Alcotest.(check int) "tiny batch" 1 (Pool.auto_chunk ~domains:4 ~n:10);
  Alcotest.(check int) "certify-matrix-sized" 7 (Pool.auto_chunk ~domains:4 ~n:252);
  Alcotest.(check int) "capped" 64 (Pool.auto_chunk ~domains:2 ~n:100_000);
  Alcotest.(check int) "never zero" 1 (Pool.auto_chunk ~domains:8 ~n:1)

let test_chunked_order () =
  (* forced chunk sizes, including chunk > n and chunk = 1, must not
     change delivery order or completeness *)
  List.iter
    (fun chunk ->
      Pool.with_pool ~clamp:false ~chunk ~jobs:3 (fun p ->
          let xs = List.init 23 Fun.id in
          Alcotest.(check (list int))
            (Printf.sprintf "map ordered at chunk %d" chunk)
            (List.map (fun x -> x * 7) xs)
            (Pool.map p (fun x -> x * 7) xs);
          let seen = ref [] in
          Pool.consume_map p Fun.id ~consume:(fun i v -> seen := (i, v) :: !seen) xs;
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "consume ordered at chunk %d" chunk)
            (List.map (fun i -> (i, i)) xs)
            (List.rev !seen);
          Alcotest.(check int)
            (Printf.sprintf "?chunk %d honored" chunk)
            chunk (Pool.stats p).Pool.chunk))
    [ 1; 4; 5; 23; 100 ]

let test_stats_counters () =
  Pool.with_pool ~clamp:false ~chunk:5 ~jobs:3 (fun p ->
      ignore (Pool.map p Fun.id (List.init 23 Fun.id));
      let s = Pool.stats p in
      Alcotest.(check int) "domains" 3 s.Pool.domains;
      Alcotest.(check int) "chunk recorded" 5 s.Pool.chunk;
      Alcotest.(check int) "every item executed exactly once" 23
        (Array.fold_left ( + ) 0 s.Pool.tasks);
      Alcotest.(check int) "ceil(23/5) chunks" 5 (Array.fold_left ( + ) 0 s.Pool.chunks);
      Alcotest.(check bool) "buffer high-water within bounds" true
        (s.Pool.max_buffered >= 1 && s.Pool.max_buffered <= 23);
      Alcotest.(check bool) "busy time accumulated" true
        (Array.fold_left ( +. ) 0.0 s.Pool.busy_s >= 0.0);
      (* counters are cumulative across batches *)
      ignore (Pool.map p Fun.id (List.init 7 Fun.id));
      let s2 = Pool.stats p in
      Alcotest.(check int) "cumulative items" 30
        (Array.fold_left ( + ) 0 s2.Pool.tasks);
      Alcotest.(check int) "cumulative chunks" 7
        (Array.fold_left ( + ) 0 s2.Pool.chunks))

let test_clamp () =
  (* by default the spawned width is capped at the core count (a width
     of 1 is the sequential path); the requested degree is kept *)
  let cores = Domain.recommended_domain_count () in
  Pool.with_pool ~jobs:(cores + 1) (fun p ->
      Alcotest.(check int) "requested degree" (cores + 1) (Pool.jobs p);
      Alcotest.(check int) "spawned" (if cores <= 1 then 0 else cores) (Pool.domains p))

let test_bounded_resequencer () =
  (* fast producers + slow consumer: workers must throttle instead of
     buffering the whole batch *)
  Pool.with_pool ~clamp:false ~chunk:4 ~jobs:4 (fun p ->
      let n = 300 in
      let seen = ref 0 in
      Pool.consume_map p Fun.id
        ~consume:(fun _ _ ->
          incr seen;
          if !seen mod 25 = 0 then Unix.sleepf 0.005)
        (List.init n Fun.id);
      Alcotest.(check int) "all consumed" n !seen;
      let s = Pool.stats p in
      (* window = max 64 (2*chunk*domains) = 64; in-flight chunks can
         overshoot by at most one chunk per worker *)
      Alcotest.(check bool)
        (Printf.sprintf "buffering bounded (max_buffered=%d)" s.Pool.max_buffered)
        true
        (s.Pool.max_buffered <= 64 + (4 * 4)))

(* ------------------------------------------------------------------ *)
(* Edge cases                                                           *)
(* ------------------------------------------------------------------ *)

let test_more_jobs_than_tasks () =
  Pool.with_pool ~clamp:false ~jobs:8 (fun p ->
      Alcotest.(check (list int))
        "3 tasks on 8 domains" [ 0; 2; 4 ]
        (Pool.map p (fun x -> 2 * x) [ 0; 1; 2 ]);
      Alcotest.(check int) "domains spawned" 8 (Pool.domains p))

let test_zero_tasks () =
  Pool.with_pool ~clamp:false ~jobs:4 (fun p ->
      Alcotest.(check (list int)) "map []" [] (Pool.map p Fun.id []);
      let hits = ref 0 in
      Pool.consume_map p Fun.id ~consume:(fun _ _ -> incr hits) [];
      Alcotest.(check int) "consume_map [] calls nothing" 0 !hits)

let test_raise_mid_chunk () =
  Pool.with_pool ~clamp:false ~chunk:4 ~jobs:2 (fun p ->
      let attempted = Atomic.make 0 in
      let f x =
        Atomic.incr attempted;
        if x = 5 || x = 9 then raise (Boom x) else x
      in
      (match Pool.map p f (List.init 12 Fun.id) with
      | _ -> Alcotest.fail "expected Boom to propagate"
      | exception Boom i ->
          Alcotest.(check int) "lowest failing index wins, mid-chunk" 5 i);
      (* the failing item neither aborts its chunk nor the batch: every
         item still ran exactly once before the error surfaced *)
      Alcotest.(check int) "all items attempted" 12 (Atomic.get attempted);
      Alcotest.(check (list int))
        "pool usable after mid-chunk failure" [ 1; 2; 3 ]
        (Pool.map p Fun.id [ 1; 2; 3 ]))

let test_use_after_shutdown () =
  let p = Pool.create ~clamp:false ~jobs:3 () in
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *);
  (match Pool.map p Fun.id [ 1; 2; 3 ] with
  | _ -> Alcotest.fail "expected Invalid_argument after shutdown"
  | exception Invalid_argument _ -> ());
  (* same contract on a pool that never had workers *)
  let q = Pool.create ~jobs:1 () in
  Pool.shutdown q;
  match Pool.consume_map q Fun.id ~consume:(fun _ _ -> ()) [ 1 ] with
  | _ -> Alcotest.fail "expected Invalid_argument after shutdown (jobs=1)"
  | exception Invalid_argument _ -> ()

(* [submit] never runs a task on the caller, at jobs 1 too: that is the
   daemon's guarantee that its event loop never compiles. *)
let test_submit_on_workers () =
  let caller = (Domain.self () :> int) in
  List.iter
    (fun jobs ->
      Pool.with_pool ~clamp:false ~dedicated:true ~jobs (fun p ->
          Alcotest.(check int) (Printf.sprintf "jobs %d: domains" jobs) jobs (Pool.domains p);
          let n = 40 in
          let ran_on = Array.make n caller in
          let m = Mutex.create () and all_done = Condition.create () in
          let left = ref n in
          for i = 0 to n - 1 do
            Pool.submit p (fun () ->
                let d = (Domain.self () :> int) in
                Mutex.lock m;
                ran_on.(i) <- d;
                decr left;
                if !left = 0 then Condition.signal all_done;
                Mutex.unlock m)
          done;
          Mutex.lock m;
          while !left > 0 do
            Condition.wait all_done m
          done;
          Mutex.unlock m;
          Array.iteri
            (fun i d ->
              if d = caller then
                Alcotest.failf "jobs %d: task %d ran on the submitting domain" jobs i)
            ran_on;
          (* a worker counts a task after its body returns, so the last
             count can land after [all_done]; shutdown joins the workers *)
          Pool.shutdown p;
          let s = Pool.stats p in
          Alcotest.(check int)
            (Printf.sprintf "jobs %d: tasks counted" jobs)
            n
            (Array.fold_left ( + ) 0 s.Pool.tasks)))
    [ 1; 2 ]

let test_submit_then_shutdown () =
  let p = Pool.create ~clamp:false ~dedicated:true ~jobs:2 () in
  let ran = Atomic.make 0 in
  for _ = 1 to 20 do
    Pool.submit p (fun () ->
        Unix.sleepf 0.002;
        Atomic.incr ran)
  done;
  (* no waiting: shutdown itself must run the queue dry, then join *)
  Pool.shutdown p;
  Alcotest.(check int) "every submitted task ran before the join" 20 (Atomic.get ran);
  (match Pool.submit p ignore with
  | () -> Alcotest.fail "expected Invalid_argument after shutdown"
  | exception Invalid_argument _ -> ());
  (* a pool without worker domains has no one to hand a task to *)
  Pool.with_pool ~jobs:1 (fun q ->
      match Pool.submit q ignore with
      | () -> Alcotest.fail "expected Invalid_argument without workers"
      | exception Invalid_argument _ -> ())

let test_start_stop_stress () =
  (* create/shutdown churn with work in flight: a worker that wakes on
     the final broadcast with an empty queue must still exit (the live
     re-check in the take path), so none of these joins may hang *)
  for round = 1 to 30 do
    Pool.with_pool ~clamp:false ~jobs:4 (fun p ->
        ignore (Pool.map p (fun x -> x * round) (List.init 8 Fun.id)));
    (* and shutdown with zero batches ever submitted *)
    let p = Pool.create ~clamp:false ~jobs:4 () in
    Pool.shutdown p
  done;
  Alcotest.(check pass) "no hang across 30 start/stop rounds" () ()

(* ------------------------------------------------------------------ *)
(* Scaling smoke: parallel must actually win on parallel hardware       *)
(* ------------------------------------------------------------------ *)

(* CPU-bound, allocation-free work so the measurement sees scheduling
   and GC behavior, not the memory bus. *)
let spin iters =
  let x = ref 0x9E3779B9 in
  for _ = 1 to iters do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17)
  done;
  !x

let test_scaling_smoke () =
  if Domain.recommended_domain_count () < 4 then
    Alcotest.skip () (* no parallel hardware: nothing to measure *)
  else begin
    (* the clamp does not bite here (cores >= 4), and the pool defaults
       (chunking, GC tuning) are exactly what is under test *)
    let tasks = List.init 64 (fun i -> 400_000 + (i mod 7)) in
    let wall jobs =
      Pool.with_pool ~jobs (fun p ->
          let t0 = Unix.gettimeofday () in
          ignore (Pool.map p spin tasks);
          Unix.gettimeofday () -. t0)
    in
    ignore (wall 4) (* warm up: domain spawn, page faults *);
    let w1 = wall 1 and w4 = wall 4 in
    let speedup = w1 /. w4 in
    Alcotest.(check bool)
      (Printf.sprintf "jobs=4 beats jobs=1 by >= 1.5x (got %.2fx: %.3fs vs %.3fs)"
         speedup w1 w4)
      true (speedup >= 1.5)
  end

let test_default_jobs_env () =
  Unix.putenv Pool.env_var "3";
  Alcotest.(check int) "SXE_JOBS=3" 3 (Pool.default_jobs ());
  Unix.putenv Pool.env_var "";
  Alcotest.(check int) "empty means 1" 1 (Pool.default_jobs ());
  Unix.putenv Pool.env_var "zero";
  (match Pool.default_jobs () with
  | _ -> Alcotest.fail "expected Invalid_argument on SXE_JOBS=zero"
  | exception Invalid_argument _ -> ());
  Unix.putenv Pool.env_var ""

(* ------------------------------------------------------------------ *)
(* Fuzz campaigns: parallel ≡ sequential, byte for byte                 *)
(* ------------------------------------------------------------------ *)

open Sxe_fuzz

(* Everything observable about a report, as one string: counts, case
   indices and seeds, classified failures, shrunk witnesses, save paths. *)
let report_fingerprint (r : Driver.report) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "cases=%d minij=%d ir=%d mutated=%d\n" r.Driver.cases
       r.Driver.minij_cases r.Driver.ir_cases r.Driver.mutated_cases);
  List.iter
    (fun (fr : Driver.failure_report) ->
      Buffer.add_string b
        (Printf.sprintf "case %d seed %d kind %s saved %s\n" fr.Driver.index
           fr.Driver.case_seed
           (Driver.string_of_kind fr.Driver.kind)
           (Option.value fr.Driver.saved ~default:"-"));
      List.iter
        (fun f -> Buffer.add_string b (Format.asprintf "  %a\n" Oracle.pp_failure f))
        fr.Driver.failures;
      match fr.Driver.shrunk with
      | Some p -> Buffer.add_string b (Sxe_ir.Printer.prog_to_string p)
      | None -> ())
    r.Driver.failures;
  Buffer.contents b

let run_campaign ~jobs o =
  let log = Buffer.create 256 in
  let r =
    Driver.run
      { o with Driver.jobs; log = (fun s -> Buffer.add_string log s; Buffer.add_char log '\n') }
  in
  (report_fingerprint r, Buffer.contents log)

let test_fuzz_par_clean_campaign () =
  let o = { Driver.default_options with seed = 7; count = 12 } in
  let fp1, log1 = run_campaign ~jobs:1 o in
  let fp4, log4 = run_campaign ~jobs:4 o in
  Alcotest.(check string) "report identical" fp1 fp4;
  Alcotest.(check string) "log identical" log1 log4

let test_fuzz_par_failing_campaign () =
  (* with an injected bug, failures (and their in-worker shrinks) must
     come back in the same order with the same witnesses at any width *)
  let o =
    {
      Driver.default_options with
      seed = 42;
      count = 20;
      sabotage = Some Inject.Skip_add_extend;
    }
  in
  let fp1, log1 = run_campaign ~jobs:1 o in
  let fp4, log4 = run_campaign ~jobs:4 o in
  Alcotest.(check bool) "campaign does fail" true (log1 <> "");
  Alcotest.(check string) "report identical" fp1 fp4;
  Alcotest.(check string) "log identical" log1 log4

(* ------------------------------------------------------------------ *)
(* Certify matrix: parallel ≡ sequential verdict table                  *)
(* ------------------------------------------------------------------ *)

(* The verdict table sxopt certify prints, one line per (workload,
   variant) cell, computed at the given width. Mirrors the CLI's cell
   structure: freeze the bases, then compile + certify clones per cell. *)
let certify_table ~jobs () =
  let inputs =
    List.filteri (fun i _ -> i < 3) (Sxe_workloads.Registry.all ())
    |> List.map (fun (w : Sxe_workloads.Registry.t) ->
           (w.name, Sxe_lang.Frontend.compile w.source))
  in
  List.iter (fun (_, p) -> Sxe_ir.Clone.freeze_prog p) inputs;
  let configs = Sxe_core.Config.all () in
  let cells =
    List.concat_map
      (fun (name, base) -> List.map (fun c -> (name, base, c)) configs)
      inputs
  in
  Pool.with_pool ~clamp:false ~jobs (fun p ->
      Pool.map p
        (fun (name, base, (config : Sxe_core.Config.t)) ->
          let q = Sxe_ir.Clone.clone_prog base in
          let _ = Sxe_core.Pass.compile config q in
          let errs = Sxe_check.Check.certify_prog q in
          Printf.sprintf "%s/%s: %s" name config.Sxe_core.Config.name
            (if errs = [] then "ok"
             else
               String.concat "; " (List.map Sxe_check.Certify.error_to_string errs)))
        cells)

let test_certify_matrix_par_deterministic () =
  let t1 = certify_table ~jobs:1 () in
  let t4 = certify_table ~jobs:4 () in
  Alcotest.(check (list string)) "verdict table identical" t1 t4;
  Alcotest.(check int) "3 workloads x 12 variants" 36 (List.length t1)

let suite =
  [
    Alcotest.test_case "pool: map is ordered" `Quick test_map_ordered;
    Alcotest.test_case "pool: empty input, batch reuse" `Quick test_map_empty_and_reuse;
    Alcotest.test_case "pool: exception propagation" `Quick test_exception_propagation;
    Alcotest.test_case "pool: consume_map delivers in order" `Quick test_consume_in_order;
    Alcotest.test_case "pool: jobs=1 is the sequential path" `Quick
      test_jobs_one_is_sequential;
    Alcotest.test_case "pool: SXE_JOBS parsing" `Quick test_default_jobs_env;
    Alcotest.test_case "pool: auto chunk sizing" `Quick test_auto_chunk;
    Alcotest.test_case "pool: chunked scheduling keeps order" `Quick test_chunked_order;
    Alcotest.test_case "pool: stats counters" `Quick test_stats_counters;
    Alcotest.test_case "pool: worker count clamped to cores" `Quick test_clamp;
    Alcotest.test_case "pool: resequencer buffering is bounded" `Quick
      test_bounded_resequencer;
    Alcotest.test_case "pool: more jobs than tasks" `Quick test_more_jobs_than_tasks;
    Alcotest.test_case "pool: zero tasks" `Quick test_zero_tasks;
    Alcotest.test_case "pool: exception mid-chunk" `Quick test_raise_mid_chunk;
    Alcotest.test_case "pool: use after shutdown raises" `Quick test_use_after_shutdown;
    Alcotest.test_case "pool: start/stop stress" `Slow test_start_stop_stress;
    Alcotest.test_case "pool: scaling smoke (jobs 4 vs 1)" `Slow test_scaling_smoke;
    Alcotest.test_case "fuzz: clean campaign, jobs 1 = jobs 4" `Quick
      test_fuzz_par_clean_campaign;
    Alcotest.test_case "fuzz: failing campaign, jobs 1 = jobs 4" `Slow
      test_fuzz_par_failing_campaign;
    Alcotest.test_case "certify: matrix verdicts, jobs 1 = jobs 4" `Slow
      test_certify_matrix_par_deterministic;
    Alcotest.test_case "pool: submit runs on worker domains" `Quick test_submit_on_workers;
    Alcotest.test_case "pool: shutdown after submit joins" `Quick test_submit_then_shutdown;
  ]

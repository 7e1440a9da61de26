(* Tests for the benchmark.

     test_sxbench SXBENCH SXOPT BENCHMARK_JSON

   1. Replay parity: on every workload source x every variant at scale
      1, the traced replay gives the same printed IR, counters, certify
      errors and assembly as [Compile_one.run_prog], and the same matrix
      cell as [Experiment.run_one].
   2. Smoke: a --smoke run of each workload, untraced and traced, exits
      0 with a result line that parses and names exactly the metrics
      BENCHMARK.json lists. *)

module Json = Sxe_serve.Json
module Registry = Sxe_workloads.Registry
module Experiment = Sxe_harness.Experiment
module Compile_one = Sxe_serve.Compile_one

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      prerr_endline ("FAIL: " ^ msg))
    fmt

let parity () =
  let maxlen = Sxe_ir.Types.max_array_length in
  let r = Span.create () in
  List.iter
    (fun (w : Registry.t) ->
      let base = Sxe_lang.Frontend.compile w.source in
      let reference = Experiment.reference_of w in
      let profile = Experiment.collect_profile w () in
      List.iter
        (fun (config : Sxe_core.Config.t) ->
          let a = Compile_one.run_prog ~emit:true ~config ~maxlen base in
          let b = Replay.compile_prog r ~emit_asm:true ~config ~maxlen base in
          if not (Replay.same_outcome a b) then
            fail "compile replay differs on %s / %s" w.name config.name;
          let a = Experiment.run_one ~profile ~reference config w in
          let b = Replay.run_one r ~profile ~reference config w in
          if not (Replay.same_measurement a b) then
            fail "matrix replay differs on %s / %s" w.name config.name)
        (Experiment.default_variants ()))
    (Registry.all () @ Registry.extras ())

let names key bench =
  match Json.member key bench with
  | Some (Json.Arr xs) -> List.filter_map (Json.str "name") xs
  | _ -> []

let smoke ~sxbench ~sxopt bench =
  List.iter
    (fun workload ->
      List.iter
        (fun (trace, key) ->
          let args =
            [| sxbench; "--workload"; workload; "--seed"; "7"; "--seconds"; "0.3";
               "--trace"; trace; "--smoke"; "--sxopt"; sxopt |]
          in
          let ic = Unix.open_process_args_in sxbench args in
          let out = In_channel.input_all ic in
          let status = Unix.close_process_in ic in
          let lines = List.filter (( <> ) "") (String.split_on_char '\n' out) in
          match (status, List.rev lines) with
          | Unix.WEXITED 0, last :: _ -> (
              match Json.parse last with
              | exception Json.Parse_error msg -> fail "%s: result line: %s" workload msg
              | j ->
                  if Json.bool "correct" j <> Some true then fail "%s: not correct" workload;
                  let got =
                    match Json.member "metrics" j with
                    | Some (Json.Obj ms) -> List.map fst ms
                    | _ -> []
                  in
                  if List.sort compare got <> List.sort compare (names key bench) then
                    fail "%s --trace %s: metrics differ from BENCHMARK.json's %s" workload
                      trace key)
          | _ -> fail "%s --trace %s: run failed" workload trace)
        [ ("0", "end_to_end"); ("1", "per_layer") ])
    (names "workloads" bench)

let () =
  match Sys.argv with
  | [| _; sxbench; sxopt; bench |] ->
      (* dune passes the benchmark as a bare file name *)
      let sxbench = if Filename.is_implicit sxbench then "./" ^ sxbench else sxbench in
      parity ();
      let bench = Json.parse (In_channel.with_open_bin bench In_channel.input_all) in
      smoke ~sxbench ~sxopt bench;
      if !failures > 0 then exit 1;
      print_endline "sxbench: replay parity and smoke runs ok"
  | _ ->
      prerr_endline "usage: test_sxbench SXBENCH SXOPT BENCHMARK_JSON";
      exit 2

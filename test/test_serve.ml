(** Daemon tests: the JSON codec, latency histogram and compile cache
    as units; the shared {!Compile_one} path against the certifier
    directly; and an in-process server exercised over a real
    Unix-domain socket — verdict parity with the one-shot pipeline,
    cache hits, overload backpressure, hostile input (bad escapes,
    nesting bombs, over-long lines), mid-request disconnects and a
    graceful drain. Also covers the legacy 5-column audit-baseline
    parser, the monotonic clock, and a parse of every JSON artifact
    [sxopt] writes. *)

module Json = Sxe_util.Json
module Hist = Sxe_serve.Hist
module Cache = Sxe_serve.Cache
module Compile_one = Sxe_serve.Compile_one
module Server = Sxe_serve.Server
module Client = Sxe_serve.Client
module Monoclock = Sxe_util.Monoclock
module Report = Sxe_audit.Report

(* A small program that certifies under every variant: byte loads and
   narrowing casts give the pipeline real extensions to eliminate. *)
let sample_src =
  {|
void main() {
  byte[] a = new byte[16];
  int i = 0;
  while (i < 16) {
    a[i] = i * 7;
    i = i + 1;
  }
  int s = 0;
  i = 0;
  while (i < 16) {
    s = s + a[i];
    i = i + 1;
  }
  print_int(s);
  short t = (short) (s * 3);
  print_int(t);
}
|}

let bad_src = "void main() { int x = ; }"

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let cases =
    [
      ("null", Json.Null);
      ("true", Json.Bool true);
      ("false", Json.Bool false);
      ("0", Json.Int 0L);
      ("-42", Json.Int (-42L));
      ("9223372036854775807", Json.Int Int64.max_int);
      ("\"\"", Json.Str "");
      ("\"a b\"", Json.Str "a b");
      ("[]", Json.Arr []);
      ("[1,2,3]", Json.Arr [ Json.Int 1L; Json.Int 2L; Json.Int 3L ]);
      ("{}", Json.Obj []);
      ( "{\"a\":1,\"b\":[true,null]}",
        Json.Obj
          [ ("a", Json.Int 1L); ("b", Json.Arr [ Json.Bool true; Json.Null ]) ]
      );
    ]
  in
  List.iter
    (fun (s, v) ->
      Alcotest.(check bool) ("parse " ^ s) true (Json.parse s = v);
      Alcotest.(check string) ("emit " ^ s) s (Json.to_string v))
    cases;
  (* floats parse as Float, ints stay exact *)
  (match Json.parse "1.5" with
  | Json.Float f -> Alcotest.(check (float 1e-9)) "float" 1.5 f
  | _ -> Alcotest.fail "1.5 should parse as Float");
  (match Json.parse "1e3" with
  | Json.Float f -> Alcotest.(check (float 1e-9)) "exp float" 1000.0 f
  | _ -> Alcotest.fail "1e3 should parse as Float");
  (* whitespace is tolerated, trailing garbage is not *)
  Alcotest.(check bool)
    "whitespace" true
    (Json.parse " { \"a\" : [ 1 , 2 ] } " = Json.parse "{\"a\":[1,2]}");
  List.iter
    (fun s ->
      match Json.parse s with
      | _ -> Alcotest.fail ("should not parse: " ^ s)
      | exception Json.Parse_error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "1 2"; "nul"; "\"\\q\""; "\"unterminated" ]

let test_json_strings () =
  (* escape/parse round-trip, including control chars and quotes *)
  let tricky = "a\"b\\c\nd\te\r\x01 f/g" in
  let emitted = "\"" ^ Json.escape tricky ^ "\"" in
  (match Json.parse emitted with
  | Json.Str s -> Alcotest.(check string) "escape round-trip" tricky s
  | _ -> Alcotest.fail "escaped string should parse as Str");
  (* \uXXXX decoding, including a surrogate pair -> UTF-8 *)
  (match Json.parse "\"\\u0041\\u00e9\\u20ac\"" with
  | Json.Str s -> Alcotest.(check string) "bmp escapes" "A\xc3\xa9\xe2\x82\xac" s
  | _ -> Alcotest.fail "unicode escapes");
  match Json.parse "\"\\ud83d\\ude00\"" with
  | Json.Str s ->
      Alcotest.(check string) "surrogate pair" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "surrogate pair"

(* Hostile input must raise [Parse_error] and nothing else: a [Failure]
   from hex decoding or a [Stack_overflow] from nesting would sail past
   the server's parse-error handling and unwind the event loop. *)
let test_json_hostile () =
  List.iter
    (fun s ->
      match Json.parse s with
      | _ -> Alcotest.fail ("should not parse: " ^ s)
      | exception Json.Parse_error _ -> ())
    [
      {|"\uZZZZ"|};
      {|"\u12g4"|};
      {|"\u1_23"|} (* int_of_string-style underscores are not JSON *);
      {|"\u0x41"|};
      {|"\u12"|};
      {|"\ud83d\u123"|} (* malformed low half of a surrogate pair *);
    ];
  (* upper- and lower-case hex still decode *)
  (match Json.parse "\"\\u004a\\u004A\"" with
  | Json.Str s -> Alcotest.(check string) "hex case" "JJ" s
  | _ -> Alcotest.fail "mixed-case hex escapes");
  (* container nesting is bounded: deep-but-sane parses, hostile does
     not — and fails with Parse_error, not Stack_overflow *)
  let deep k = String.make k '[' ^ String.make k ']' in
  (match Json.parse (deep 100) with
  | Json.Arr _ -> ()
  | _ -> Alcotest.fail "100 levels should parse");
  List.iter
    (fun s ->
      match Json.parse s with
      | _ -> Alcotest.fail "hostile nesting should be rejected"
      | exception Json.Parse_error _ -> ())
    [ deep 100_000; String.make 1_000_000 '['; String.make 100_000 '{' ]

let test_json_accessors () =
  let j = Json.parse "{\"s\":\"x\",\"n\":7,\"b\":true,\"f\":1.5}" in
  Alcotest.(check (option string)) "str" (Some "x") (Json.str "s" j);
  Alcotest.(check bool) "int" true (Json.int "n" j = Some 7L);
  Alcotest.(check (option bool)) "bool" (Some true) (Json.bool "b" j);
  (* absent member: None without default, Some default with *)
  Alcotest.(check (option string)) "absent" None (Json.str "zz" j);
  Alcotest.(check (option string))
    "absent default" (Some "d")
    (Json.str ~default:"d" "zz" j);
  (* wrong type: None even with a default — a default only fills an
     absent member, it must not mask a malformed one *)
  Alcotest.(check (option string)) "wrong type" None (Json.str "n" j);
  Alcotest.(check (option string))
    "wrong type w/ default" None
    (Json.str ~default:"d" "n" j);
  Alcotest.(check bool) "int on float" true (Json.int "f" j = None)

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)
(* ------------------------------------------------------------------ *)

let test_hist () =
  let h = Hist.create () in
  Alcotest.(check int) "empty count" 0 (Hist.count h);
  Alcotest.(check (float 0.0)) "empty quantile" 0.0 (Hist.quantile h 0.5);
  Alcotest.(check (float 0.0)) "empty mean" 0.0 (Hist.mean_s h);
  let samples = [ 0.001; 0.002; 0.002; 0.004; 0.100 ] in
  List.iter (Hist.add h) samples;
  Alcotest.(check int) "count" 5 (Hist.count h);
  Alcotest.(check (float 1e-12)) "max exact" 0.100 (Hist.max_s h);
  Alcotest.(check (float 1e-12))
    "mean exact"
    (List.fold_left ( +. ) 0.0 samples /. 5.0)
    (Hist.mean_s h);
  (* quantiles are bucketed: relative error bounded by the 1.25 ratio *)
  let p50 = Hist.quantile h 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "p50 %.6f near 0.002" p50)
    true
    (p50 >= 0.002 /. 1.25 && p50 <= 0.002 *. 1.25);
  (* p100 never exceeds the exact max and lands in its bucket *)
  let p100 = Hist.quantile h 1.0 in
  Alcotest.(check bool)
    (Printf.sprintf "p100 %.6f bounded by max" p100)
    true
    (p100 <= 0.100 && p100 >= 0.100 /. 1.25);
  (* non-positive samples clamp into the first bucket, count still *)
  Hist.add h (-1.0);
  Alcotest.(check int) "clamped count" 6 (Hist.count h);
  (* merge accumulates element-wise *)
  let h2 = Hist.create () in
  Hist.add h2 0.050;
  Hist.merge_into ~into:h2 h;
  Alcotest.(check int) "merged count" 7 (Hist.count h2);
  Alcotest.(check (float 1e-12)) "merged max" 0.100 (Hist.max_s h2)

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let cache_key ?(variant = "all") ?(arch = "ia64") ?(maxlen = 1024L)
    ?(emit = false) source =
  Cache.key ~variant ~arch ~maxlen ~emit ~source

let test_cache_basic () =
  let c = Cache.create ~max_entries:8 () in
  let k = cache_key "src" in
  Alcotest.(check (option string)) "miss" None (Cache.find c k);
  Cache.add c k "payload";
  Alcotest.(check (option string)) "hit" (Some "payload") (Cache.find c k);
  Alcotest.(check int) "hits" 1 (Cache.hits c);
  Alcotest.(check int) "misses" 1 (Cache.misses c);
  Alcotest.(check int) "size" 1 (Cache.size c);
  (* re-adding an existing key is a first-wins no-op *)
  Cache.add c k "other";
  Alcotest.(check (option string)) "first wins" (Some "payload") (Cache.find c k);
  Alcotest.(check int) "no dup entry" 1 (Cache.size c)

let test_cache_key_sensitivity () =
  let base = cache_key "src" in
  List.iter
    (fun (what, k) ->
      Alcotest.(check bool) (what ^ " changes key") false (String.equal base k))
    [
      ("variant", cache_key ~variant:"baseline" "src");
      ("arch", cache_key ~arch:"ppc64" "src");
      ("maxlen", cache_key ~maxlen:2048L "src");
      ("emit", cache_key ~emit:true "src");
      ("source", cache_key "src ");
    ];
  Alcotest.(check string) "deterministic" base (cache_key "src")

let test_cache_eviction () =
  let c = Cache.create ~max_entries:2 () in
  let k i = cache_key (string_of_int i) in
  Cache.add c (k 1) "1";
  Cache.add c (k 2) "2";
  Cache.add c (k 3) "3";
  (* FIFO: 1 is gone, 2 and 3 remain *)
  Alcotest.(check (option string)) "oldest evicted" None (Cache.find c (k 1));
  Alcotest.(check (option string)) "second kept" (Some "2") (Cache.find c (k 2));
  Alcotest.(check (option string)) "third kept" (Some "3") (Cache.find c (k 3));
  Alcotest.(check int) "bounded" 2 (Cache.size c);
  (* max_entries <= 0 disables storage entirely *)
  let off = Cache.create ~max_entries:0 () in
  Cache.add off (k 1) "1";
  Alcotest.(check (option string)) "disabled" None (Cache.find off (k 1));
  Alcotest.(check int) "disabled size" 0 (Cache.size off)

(* ------------------------------------------------------------------ *)
(* Compile_one: the shared pipeline                                    *)
(* ------------------------------------------------------------------ *)

let maxlen = Sxe_ir.Types.max_array_length

let test_compile_one () =
  (* Config's variant table: unique CLI names, each resolving to its
     own tag and constructor, and the paper's rows in Table 1 order *)
  let names = List.map (fun (n, _, _) -> n) Sxe_core.Config.variants in
  Alcotest.(check int)
    "unique CLI names" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun (name, v, (make : ?arch:_ -> ?maxlen:_ -> unit -> Sxe_core.Config.t)) ->
      Alcotest.(check bool)
        ("variant " ^ name) true
        (Sxe_core.Config.variant_of_name name = Some v
        && (Sxe_core.Config.of_variant v).Sxe_core.Config.name = (make ()).Sxe_core.Config.name))
    Sxe_core.Config.variants;
  Alcotest.(check (list string))
    "Table 1 rows"
    [
      "baseline"; "gen use"; "first algorithm"; "basic ud/du"; "insert"; "order";
      "insert, order"; "array"; "array, insert"; "array, order"; "all, using PDE";
      "new algorithm (all)";
    ]
    (List.map (fun (c : Sxe_core.Config.t) -> c.Sxe_core.Config.name) (Sxe_core.Config.all ()));
  Alcotest.(check bool)
    "unknown variant" true
    (Sxe_core.Config.variant_of_name "nope" = None);
  Alcotest.(check bool) "unknown arch" true (Compile_one.arch_of_name "x86" = None);
  (* the happy path certifies and reports work done *)
  let config = Compile_one.config_of `All in
  (match Compile_one.run_source ~config ~maxlen sample_src with
  | Error e -> Alcotest.fail ("unexpected frontend error: " ^ e)
  | Ok o ->
      Alcotest.(check (list string))
        "certified"
        []
        (List.map (fun _ -> "error") o.Compile_one.errors);
      Alcotest.(check bool)
        "extensions generated" true
        (o.Compile_one.stats.Sxe_core.Stats.generated > 0);
      Alcotest.(check bool) "no asm unless asked" true (o.Compile_one.asm = None));
  (* emit produces assembly through the same call *)
  (match Compile_one.run_source ~emit:true ~config ~maxlen sample_src with
  | Error e -> Alcotest.fail ("unexpected frontend error: " ^ e)
  | Ok o -> (
      match o.Compile_one.asm with
      | Some a -> Alcotest.(check bool) "asm nonempty" true (String.length a > 0)
      | None -> Alcotest.fail "emit:true must produce asm"));
  (* frontend errors are a result, not an exception *)
  match Compile_one.run_source ~config ~maxlen bad_src with
  | Error msg -> Alcotest.(check bool) "error message" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "bad source must not compile"

(* The verdict the daemon embeds must be the certifier's own: run the
   pipeline directly and compare the canonicalized errors JSON. *)
let test_compile_one_matches_certifier () =
  let config = Compile_one.config_of ~maxlen:4L `Baseline in
  (* tiny maxlen forces certification errors on array-heavy code *)
  match Compile_one.run_source ~config ~maxlen:4L sample_src with
  | Error e -> Alcotest.fail ("unexpected frontend error: " ^ e)
  | Ok o ->
      let ours = Sxe_check.Check.errors_to_json o.Compile_one.errors in
      (* the fragment the server would embed is itself valid JSON *)
      let reparsed = Json.parse ours in
      Alcotest.(check bool)
        "errors fragment is a JSON array" true
        (match reparsed with Json.Arr _ -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* In-process server over a real socket                                *)
(* ------------------------------------------------------------------ *)

let temp_socket_path () =
  let p = Filename.temp_file "sxe-serve-test" ".sock" in
  (* claim_socket treats a non-socket file as stale and unlinks it *)
  p

let with_server ?(jobs = 1) ?(queue_max = 64) ?(timeout_s = 30.0)
    ?(cache_max = 4096) f =
  let socket_path = temp_socket_path () in
  let config = { Server.socket_path; jobs; queue_max; timeout_s; cache_max } in
  let t = Server.create config in
  let ready = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Server.serve ~on_ready:(fun () -> Atomic.set ready true) t)
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.002
  done;
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Domain.join d;
      try Sys.remove socket_path with Sys_error _ -> ())
    (fun () -> f socket_path t)

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

(* Read from a raw fd until [n] complete lines have arrived. *)
let recv_lines fd n =
  let buf = Bytes.create 65536 in
  let acc = Buffer.create 4096 in
  let newlines () =
    String.fold_left
      (fun a ch -> if ch = '\n' then a + 1 else a)
      0 (Buffer.contents acc)
  in
  while newlines () < n do
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> failwith "server closed the connection early"
    | k -> Buffer.add_subbytes acc buf 0 k
  done;
  String.split_on_char '\n' (Buffer.contents acc)
  |> List.filter (fun s -> s <> "")

let compile_req ?(variant = "all") ?id source =
  let id_field =
    match id with
    | None -> ""
    | Some i -> Printf.sprintf "\"id\":\"%s\"," (Json.escape i)
  in
  Printf.sprintf "{%s\"op\":\"compile\",\"variant\":\"%s\",\"source\":\"%s\"}\n"
    id_field (Json.escape variant) (Json.escape source)

let test_serve_ping_and_errors () =
  with_server (fun path _t ->
      let c = Client.connect path in
      let pong = Client.request c "{\"op\":\"ping\"}" in
      Alcotest.(check (option bool))
        "pong" (Some true)
        (Json.bool "pong" (Json.parse pong));
      (* id round-trips verbatim, including non-string ids *)
      let r = Client.request c "{\"id\":17,\"op\":\"ping\"}" in
      Alcotest.(check bool) "int id echoed" true
        (Json.int "id" (Json.parse r) = Some 17L);
      (* malformed line -> parse error, connection stays usable *)
      let r = Client.request c "{oops" in
      Alcotest.(check (option string))
        "parse error" (Some "parse")
        (Json.str "error" (Json.parse r));
      let r = Client.request c "{\"op\":\"frobnicate\"}" in
      Alcotest.(check (option string))
        "unknown op" (Some "bad_request")
        (Json.str "error" (Json.parse r));
      let r = Client.request c "{\"op\":\"compile\"}" in
      Alcotest.(check (option string))
        "missing source" (Some "bad_request")
        (Json.str "error" (Json.parse r));
      (* hostile escapes and pathological nesting are parse errors the
         connection survives, not exceptions the daemon dies of *)
      let r = Client.request c "{\"op\":\"ping\",\"x\":\"\\uZZZZ\"}" in
      Alcotest.(check (option string))
        "bad unicode escape" (Some "parse")
        (Json.str "error" (Json.parse r));
      let r = Client.request c (String.make 100_000 '[') in
      Alcotest.(check (option string))
        "nesting bomb" (Some "parse")
        (Json.str "error" (Json.parse r));
      (* wrong-typed variant/arch are bad requests, not silently the
         default config *)
      let r =
        Client.request c
          "{\"op\":\"compile\",\"source\":\"void main() {}\",\"variant\":3}"
      in
      Alcotest.(check (option string))
        "non-string variant" (Some "bad_request")
        (Json.str "error" (Json.parse r));
      let r =
        Client.request c
          "{\"op\":\"compile\",\"source\":\"void main() {}\",\"arch\":[]}"
      in
      Alcotest.(check (option string))
        "non-string arch" (Some "bad_request")
        (Json.str "error" (Json.parse r));
      let r = Client.compile ~variant:"warp-speed" c sample_src in
      Alcotest.(check (option string))
        "unknown variant" (Some "bad_request")
        (Json.str "error" (Json.parse r));
      (* frontend errors are request errors, not daemon crashes *)
      let r = Client.compile c bad_src in
      Alcotest.(check (option string))
        "frontend error" (Some "frontend")
        (Json.str "error" (Json.parse r));
      Alcotest.(check (option bool))
        "still alive" (Some true)
        (Json.bool "pong" (Json.parse (Client.request c "{\"op\":\"ping\"}")));
      Client.close c)

(* The daemon's verdict must be the same computation as the one-shot
   pipeline: same certified bit, same stats, same canonical errors. *)
let test_serve_verdict_parity () =
  with_server (fun path _t ->
      let c = Client.connect path in
      List.iter
        (fun vname ->
          let resp = Json.parse (Client.compile ~variant:vname c sample_src) in
          let variant =
            Option.get (Sxe_core.Config.variant_of_name vname)
          in
          let config = Compile_one.config_of variant in
          let direct =
            match Compile_one.run_source ~config ~maxlen sample_src with
            | Ok o -> o
            | Error e -> Alcotest.fail ("direct pipeline failed: " ^ e)
          in
          Alcotest.(check (option bool))
            (vname ^ " ok") (Some true) (Json.bool "ok" resp);
          Alcotest.(check (option bool))
            (vname ^ " certified")
            (Some (direct.Compile_one.errors = []))
            (Json.bool "certified" resp);
          Alcotest.(check (option string))
            (vname ^ " variant name")
            (Some direct.Compile_one.config.Sxe_core.Config.name)
            (Json.str "variant" resp);
          (* canonical errors parity: daemon field == certifier output *)
          let direct_errors =
            Json.to_string
              (Json.parse
                 (Sxe_check.Check.errors_to_json direct.Compile_one.errors))
          in
          let served_errors =
            match Json.member "errors" resp with
            | Some e -> Json.to_string e
            | None -> Alcotest.fail (vname ^ ": response without errors field")
          in
          Alcotest.(check string) (vname ^ " errors") direct_errors served_errors;
          (* stats parity on the fields the response carries *)
          let stats =
            match Json.member "stats" resp with
            | Some s -> s
            | None -> Alcotest.fail (vname ^ ": response without stats")
          in
          let s = direct.Compile_one.stats in
          List.iter
            (fun (field, expect) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s stats.%s" vname field)
                true
                (Json.int field stats = Some (Int64.of_int expect)))
            [
              ("generated", s.Sxe_core.Stats.generated);
              ("inserted", s.Sxe_core.Stats.inserted);
              ("eliminated", s.Sxe_core.Stats.eliminated);
              ("remaining", s.Sxe_core.Stats.remaining);
              ("remaining_zext", s.Sxe_core.Stats.remaining_zext);
            ])
        [ "baseline"; "first"; "all" ];
      Client.close c)

let test_serve_cache_hit () =
  with_server (fun path _t ->
      let c = Client.connect path in
      let r1 = Client.compile c sample_src in
      let r2 = Client.compile c sample_src in
      Alcotest.(check (option bool))
        "first is a miss" (Some false)
        (Json.bool "cached" (Json.parse r1));
      Alcotest.(check (option bool))
        "second is a hit" (Some true)
        (Json.bool "cached" (Json.parse r2));
      (* byte-identical verdict modulo the cached flag *)
      let norm s =
        match String.index_opt s ',' with
        | Some i ->
            (* drop the leading {"cached":...,} field *)
            "{" ^ String.sub s (i + 1) (String.length s - i - 1)
        | None -> s
      in
      Alcotest.(check string) "hit payload byte-identical" (norm r1) (norm r2);
      (* a different variant is a different key *)
      let r3 = Client.compile ~variant:"baseline" c sample_src in
      Alcotest.(check (option bool))
        "other variant misses" (Some false)
        (Json.bool "cached" (Json.parse r3));
      (* frontend errors are deterministic, so they cache too *)
      let e1 = Client.compile c bad_src in
      let e2 = Client.compile c bad_src in
      Alcotest.(check (option bool))
        "error cached" (Some true)
        (Json.bool "cached" (Json.parse e2));
      Alcotest.(check string) "error payload stable" (norm e1) (norm e2);
      (* metrics agree *)
      let m = Json.parse (Client.request c "{\"op\":\"metrics\"}") in
      let metrics = Option.get (Json.member "metrics" m) in
      let cache = Option.get (Json.member "cache" metrics) in
      Alcotest.(check bool)
        "hits counted" true
        (match Json.int "hits" cache with Some h -> h >= 2L | None -> false);
      Alcotest.(check bool)
        "latency recorded" true
        (match Json.member "latency" metrics with
        | Some lat -> (
            match Json.int "count" lat with Some n -> n > 0L | None -> false)
        | None -> false);
      Client.close c)

let test_serve_overload () =
  (* jobs=1, queue_max=1: a pipelined burst of unique (cache-missing)
     requests must draw "overloaded" replies, and the daemon must keep
     serving afterwards. *)
  with_server ~jobs:1 ~queue_max:1 (fun path _t ->
      let c = Client.connect path in
      let n = 16 in
      let burst = Buffer.create 4096 in
      for i = 0 to n - 1 do
        Buffer.add_string burst
          (compile_req (Printf.sprintf "%s// burst-%d\n" sample_src i))
      done;
      write_all (Client.fd c) (Buffer.contents burst);
      let replies = recv_lines (Client.fd c) n in
      Alcotest.(check int) "one reply per request" n (List.length replies);
      let overloaded, served =
        List.partition
          (fun r -> Json.str "error" (Json.parse r) = Some "overloaded")
          replies
      in
      Alcotest.(check bool)
        (Printf.sprintf "backpressure engaged (%d overloaded)"
           (List.length overloaded))
        true
        (List.length overloaded > 0);
      Alcotest.(check bool) "some requests served" true (List.length served > 0);
      List.iter
        (fun r ->
          Alcotest.(check (option bool))
            "served ok" (Some true)
            (Json.bool "ok" (Json.parse r)))
        served;
      Client.close c;
      (* after the burst the daemon still answers promptly *)
      let c2 = Client.connect path in
      Alcotest.(check (option bool))
        "alive after overload" (Some true)
        (Json.bool "ok" (Json.parse (Client.compile c2 sample_src)));
      Client.close c2)

(* A connection that exceeds the 16 MB line cap is protocol-broken and
   must be dropped — but only after its error reply is flushed, so the
   client learns why instead of seeing a bare hang-up. *)
let test_serve_overlong_line () =
  with_server (fun path _t ->
      let c = Client.connect path in
      let fd = Client.fd c in
      let chunk = String.make 65536 'x' in
      (* 17 MB with no newline; once the server turns off reading and
         closes, our blocked write fails — that is the success path *)
      (try
         for _ = 1 to 272 do
           write_all fd chunk
         done
       with Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> ());
      let reply =
        match recv_lines fd 1 with
        | [ r ] -> r
        | rs -> Alcotest.fail (Printf.sprintf "%d replies" (List.length rs))
      in
      Alcotest.(check (option string))
        "error reply delivered before close" (Some "bad_request")
        (Json.str "error" (Json.parse reply));
      Alcotest.(check (option string))
        "detail names the cap"
        (Some "request line too long")
        (Json.str "detail" (Json.parse reply));
      (* the connection is then closed by the server side *)
      let buf = Bytes.create 16 in
      let rec drained () =
        match Unix.read fd buf 0 16 with
        | 0 -> true
        | _ -> drained ()
        | exception Unix.Unix_error (ECONNRESET, _, _) -> true
      in
      Alcotest.(check bool) "connection closed after reply" true (drained ());
      Client.close c;
      (* and the daemon is unharmed *)
      let c2 = Client.connect path in
      Alcotest.(check (option bool))
        "daemon alive" (Some true)
        (Json.bool "ok" (Json.parse (Client.compile c2 sample_src)));
      Client.close c2)

let test_serve_client_disconnect () =
  (* A client that sends a compile and vanishes before reading must
     cost only its own reply: no crash, no leaked pool slot, next
     connection served normally. *)
  with_server ~jobs:2 (fun path t ->
      for i = 0 to 4 do
        let c = Client.connect path in
        write_all (Client.fd c)
          (compile_req (Printf.sprintf "%s// ghost-%d\n" sample_src i));
        Client.close c
      done;
      (* half-close variant: request sent, write side shut, reader gone *)
      let c = Client.connect path in
      write_all (Client.fd c) (compile_req (sample_src ^ "// ghost-half\n"));
      (try Unix.shutdown (Client.fd c) Unix.SHUTDOWN_ALL
       with Unix.Unix_error _ -> ());
      Client.close c;
      (* the daemon survives and still compiles for the living *)
      let c2 = Client.connect path in
      let r = Client.compile c2 sample_src in
      Alcotest.(check (option bool))
        "served after disconnects" (Some true)
        (Json.bool "ok" (Json.parse r));
      Alcotest.(check (option bool))
        "verdict intact" (Some true)
        (Json.bool "certified" (Json.parse r));
      Alcotest.(check bool)
        "requests were processed" true
        (Server.requests_served t >= 1);
      Client.close c2)

let test_serve_concurrent () =
  with_server ~jobs:2 (fun path _t ->
      let per_domain = 20 in
      let worker k () =
        let c = Client.connect path in
        let bad = ref 0 in
        for i = 0 to per_domain - 1 do
          (* a mix of shared (cacheable) and unique bodies *)
          let src =
            if i mod 2 = 0 then sample_src
            else Printf.sprintf "%s// d%d-%d\n" sample_src k i
          in
          let j = Json.parse (Client.compile c src) in
          if Json.bool "ok" j <> Some true || Json.bool "certified" j <> Some true
          then incr bad
        done;
        Client.close c;
        !bad
      in
      let domains = List.init 4 (fun k -> Domain.spawn (worker k)) in
      let bad = List.fold_left (fun a d -> a + Domain.join d) 0 domains in
      Alcotest.(check int) "all concurrent verdicts ok" 0 bad;
      let c = Client.connect path in
      let m = Json.parse (Client.request c "{\"op\":\"metrics\"}") in
      let metrics = Option.get (Json.member "metrics" m) in
      Alcotest.(check bool)
        "all requests counted" true
        (match Json.int "compile_requests" metrics with
        | Some n -> n >= Int64.of_int (4 * per_domain)
        | None -> false);
      Client.close c)

let test_serve_drain () =
  let socket_path = temp_socket_path () in
  let config =
    { (Server.default_config ~socket_path) with Server.jobs = 1 }
  in
  let t = Server.create config in
  let ready = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Server.serve ~on_ready:(fun () -> Atomic.set ready true) t)
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.002
  done;
  let c = Client.connect socket_path in
  (* a compile already queued before shutdown must still be answered:
     pipeline both requests, then read both replies. The shutdown ack
     comes back inline while the compile waits for its batch, so the
     two replies are correlated by id, not by order. *)
  write_all (Client.fd c) (compile_req ~id:"c" sample_src);
  write_all (Client.fd c) "{\"id\":\"s\",\"op\":\"shutdown\"}\n";
  let replies = List.map Json.parse (recv_lines (Client.fd c) 2) in
  Alcotest.(check int) "two replies" 2 (List.length replies);
  let by_id i =
    match List.find_opt (fun j -> Json.str "id" j = Some i) replies with
    | Some j -> j
    | None -> Alcotest.fail ("no reply with id " ^ i)
  in
  Alcotest.(check (option bool))
    "queued compile answered during drain" (Some true)
    (Json.bool "ok" (by_id "c"));
  Alcotest.(check (option bool))
    "shutdown acknowledged" (Some true)
    (Json.bool "stopping" (by_id "s"));
  Client.close c;
  (* the loop exits on its own — no Server.stop here *)
  Domain.join d;
  Alcotest.(check bool)
    "socket file removed" false
    (Sys.file_exists socket_path);
  (* nobody is listening anymore *)
  (match Client.connect socket_path with
  | c ->
      Client.close c;
      Alcotest.fail "connect should fail after drain"
  | exception Unix.Unix_error _ -> ());
  Alcotest.(check bool) "drain served requests" true (Server.requests_served t >= 2)

(* ------------------------------------------------------------------ *)
(* Satellite: legacy 5-column baseline TSV parsing                     *)
(* ------------------------------------------------------------------ *)

let test_baseline_legacy_format () =
  let rows =
    [
      ("alpha", "all", 3, 1, 2, 5, 1);
      ("alpha", "baseline", 30, 4, 6, 33, 7);
      ("beta", "all", 0, 0, 1, 1, 0);
    ]
  in
  let seven =
    Report.baseline_header ^ "\n"
    ^ String.concat "\n"
        (List.map
           (fun (i, v, r, n, u, s, z) ->
             Printf.sprintf "%s\t%s\t%d\t%d\t%d\t%d\t%d" i v r n u s z)
           rows)
    ^ "\n"
  in
  let five =
    "# pre-kind baseline, no sext/zext columns\n"
    ^ String.concat "\n"
        (List.map
           (fun (i, v, r, n, u, _, _) ->
             Printf.sprintf "%s\t%s\t%d\t%d\t%d" i v r n u)
           rows)
    ^ "\n"
  in
  let p7 = Report.parse_baseline seven in
  let p5 = Report.parse_baseline five in
  Alcotest.(check int) "row count (7col)" 3 (List.length p7);
  Alcotest.(check int) "row count (5col)" 3 (List.length p5);
  (* the gate reads only verdict counts: both formats must agree *)
  Alcotest.(check bool) "legacy == current" true (p5 = p7);
  (match List.assoc_opt ("alpha", "baseline") p7 with
  | Some c ->
      Alcotest.(check int) "redundant" 30 c.Report.redundant;
      Alcotest.(check int) "necessary" 4 c.Report.necessary;
      Alcotest.(check int) "unknown" 6 c.Report.unknown
  | None -> Alcotest.fail "missing row");
  (* blank lines and comments are skipped in both eras *)
  let p = Report.parse_baseline "\n# c\n\n  \nx\ty\t1\t2\t3\n" in
  Alcotest.(check int) "noise skipped" 1 (List.length p);
  (* malformed rows fail loudly, never gate vacuously *)
  List.iter
    (fun body ->
      match Report.parse_baseline body with
      | _ -> Alcotest.fail ("should reject: " ^ String.escaped body)
      | exception Failure _ -> ())
    [
      "x\ty\t1\t2\n";             (* too few columns *)
      "x\ty\t1\t2\t3\t4\n";       (* six columns: neither era *)
      "x\ty\t1\t2\tnope\n";       (* non-numeric count *)
      "x\ty\t1\t2\t3\t4\t5\t6\n"; (* too many columns *)
    ]

(* ------------------------------------------------------------------ *)
(* Satellite: monotonic clock                                          *)
(* ------------------------------------------------------------------ *)

let test_monoclock () =
  (* never decreasing, even across many rapid reads *)
  let prev = ref (Monoclock.now_ns ()) in
  for _ = 1 to 10_000 do
    let t = Monoclock.now_ns () in
    if Int64.compare t !prev < 0 then
      Alcotest.failf "monotonic clock went backwards: %Ld -> %Ld" !prev t;
    prev := t
  done;
  (* elapsed_s measures a real sleep, and is never negative *)
  let t0 = Monoclock.now_ns () in
  Unix.sleepf 0.01;
  let dt = Monoclock.elapsed_s t0 in
  Alcotest.(check bool)
    (Printf.sprintf "elapsed %.4fs covers the sleep" dt)
    true
    (dt >= 0.009 && dt < 10.0);
  Alcotest.(check bool)
    "now_s consistent with now_ns" true
    (abs_float (Monoclock.now_s () -. (Int64.to_float (Monoclock.now_ns ()) /. 1e9))
    < 1.0)

(* ------------------------------------------------------------------ *)
(* Every JSON artifact parses                                          *)
(* ------------------------------------------------------------------ *)

(* The sxopt binary this test depends on (test/dune). *)
let sxopt = Helpers.fixture "bin/sxopt.exe"

(* Run sxopt and return its stdout lines; any exit status is accepted
   (a nonzero one reports findings, not a broken artifact). *)
let sxopt_lines args =
  let ic = Unix.open_process_args_in sxopt (Array.of_list (sxopt :: args)) in
  let out = In_channel.input_all ic in
  ignore (Unix.close_process_in ic);
  List.filter (( <> ) "") (String.split_on_char '\n' out)

let parses what line =
  match Json.parse line with
  | _ -> ()
  | exception Json.Parse_error msg -> Alcotest.failf "%s: %s in %s" what msg line

(* Corpus entry names that need escaping (UTF-8 and a quote) must come
   out as valid JSON from every writer. *)
let test_json_artifacts_parse () =
  let dir = Filename.temp_dir "sxe-json" "" in
  let src = In_channel.with_open_bin (Helpers.fixture "corpus/seed-minij-003.minij") In_channel.input_all in
  let names = [ "q\"uote.minij"; "seed-\xc3\xa9-003.minij" ] (* load order *) in
  List.iter
    (fun n ->
      Out_channel.with_open_bin (Filename.concat dir n) (fun oc ->
          Out_channel.output_string oc src))
    names;
  let corpus = [ "--corpus"; dir ] in
  List.iter
    (fun (what, args, n) ->
      let lines = sxopt_lines args in
      Alcotest.(check int) (what ^ " line count") n (List.length lines);
      List.iter (parses what) lines)
    [
      ("certify --json", [ "certify"; "--json" ] @ corpus, 1);
      ("lint --json", [ "lint"; "--json" ] @ corpus, 1);
      ("audit --json --sarif -", [ "audit"; "--no-verify"; "--json"; "--sarif"; "-" ] @ corpus, 2);
      ( "bench --dispatch-counts",
        [ "bench"; "--dispatch-counts"; "--workload"; "compress"; "--top"; "3" ],
        1 );
    ];
  (match Json.parse (List.hd (sxopt_lines ([ "certify"; "--json" ] @ corpus))) with
  | Json.Arr cells ->
      Alcotest.(check (list (option string)))
        "input names round-trip" (List.map Option.some names)
        (List.map (Json.str "input") cells)
  | _ -> Alcotest.fail "certify --json is not an array");
  List.iter (fun n -> Sys.remove (Filename.concat dir n)) names;
  Sys.rmdir dir;
  with_server (fun path _t ->
      let c = Client.connect path in
      parses "compile reply" (Client.compile ~emit:true c sample_src);
      parses "error reply" (Client.compile c bad_src);
      parses "metrics reply" (Client.request c "{\"op\":\"metrics\"}");
      Client.close c)

(* ------------------------------------------------------------------ *)
(* Per-request dispatch and the frontend nesting bound                 *)
(* ------------------------------------------------------------------ *)

(* A program whose compile takes a noticeable while (about 0.5 s on one
   core of a 2-vCPU VM): 60 counted loops in one function, and the
   pipeline's cost grows faster than linearly in that count. *)
let slow_src =
  let b = Buffer.create 8192 in
  Buffer.add_string b "void main() {\n  byte[] a = new byte[64];\n  int s = 0;\n";
  for k = 0 to 59 do
    Printf.bprintf b
      "  for (int i%d = 0; i%d < 64; i%d = i%d + 1) { a[i%d] = i%d * %d; s = s + a[i%d]; }\n"
      k k k k k k (k mod 7 + 1) k
  done;
  Buffer.add_string b "  print_int(s);\n}\n";
  Buffer.contents b

let metric conn name =
  let m = Json.parse (Client.request conn "{\"op\":\"metrics\"}") in
  match Option.bind (Json.member "metrics" m) (Json.int name) with
  | Some v -> Int64.to_int v
  | None -> Alcotest.failf "metrics reply without %S" name

(* Poll [metrics] until a compile is in flight; the event loop answers
   it while the worker compiles. *)
let await_inflight conn =
  let t0 = Unix.gettimeofday () in
  while metric conn "queue_depth" = 0 do
    if Unix.gettimeofday () -. t0 > 10.0 then
      Alcotest.fail "the compile never showed up as in flight";
    Unix.sleepf 0.002
  done

let readable fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | [], _, _ -> false
  | _ -> true

(* Misses are compiled on worker domains while the loop keeps answering:
   a hit on another connection overtakes a slow miss. *)
let test_serve_hit_overtakes_miss () =
  with_server ~jobs:1 (fun path _t ->
      let slow = Client.connect path and fast = Client.connect path in
      ignore (Client.compile fast sample_src);
      write_all (Client.fd slow) (compile_req ~id:"slow" slow_src);
      await_inflight fast;
      let hit = Json.parse (Client.compile fast sample_src) in
      Alcotest.(check (option bool)) "hit answered" (Some true) (Json.bool "cached" hit);
      Alcotest.(check bool)
        "the slow miss is still compiling" true
        (metric fast "queue_depth" = 1 && not (readable (Client.fd slow)));
      (match List.map Json.parse (recv_lines (Client.fd slow) 1) with
      | [ r ] ->
          Alcotest.(check (option bool)) "slow miss ok" (Some true) (Json.bool "ok" r);
          Alcotest.(check (option bool)) "slow miss was a miss" (Some false) (Json.bool "cached" r)
      | rs -> Alcotest.failf "%d replies to the slow miss" (List.length rs));
      Client.close slow;
      Client.close fast)

(* A miss whose key is already compiling joins that compile. *)
let test_serve_coalesce_inflight () =
  with_server ~jobs:1 (fun path _t ->
      let c = Client.connect path in
      let src = sample_src ^ "// coalesce\n" in
      write_all (Client.fd c) (compile_req ~id:"a" src ^ compile_req ~id:"b" src);
      let replies = List.map Json.parse (recv_lines (Client.fd c) 2) in
      Alcotest.(check (list (option string)))
        "both answered" [ Some "a"; Some "b" ]
        (List.sort compare (List.map (Json.str "id") replies));
      List.iter
        (fun r ->
          Alcotest.(check (option bool)) "ok" (Some true) (Json.bool "ok" r);
          Alcotest.(check (option bool)) "not from the cache" (Some false) (Json.bool "cached" r))
        replies;
      Alcotest.(check int) "one compile" 1 (metric c "compiles");
      Alcotest.(check int) "one coalesced" 1 (metric c "coalesced");
      Client.close c)

(* [Server.stop] with a compile on a worker: the drain waits for it, and
   its reply is out before [serve] returns. *)
let test_serve_stop_inflight () =
  let socket_path = temp_socket_path () in
  let t = Server.create { (Server.default_config ~socket_path) with Server.jobs = 1 } in
  let ready = Atomic.make false in
  let d =
    Domain.spawn (fun () -> Server.serve ~on_ready:(fun () -> Atomic.set ready true) t)
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.002
  done;
  let c = Client.connect socket_path and probe = Client.connect socket_path in
  write_all (Client.fd c) (compile_req ~id:"slow" slow_src);
  await_inflight probe;
  Server.stop t;
  Domain.join d;
  (match List.map Json.parse (recv_lines (Client.fd c) 1) with
  | [ r ] ->
      Alcotest.(check (option string)) "reply id" (Some "slow") (Json.str "id" r);
      Alcotest.(check (option bool)) "in-flight compile answered" (Some true) (Json.bool "ok" r)
  | rs -> Alcotest.failf "%d replies" (List.length rs));
  Client.close c;
  Client.close probe;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket_path)

(* Run sxopt; return its exit code and standard error. *)
let sxopt_status args =
  let out, inp, err =
    Unix.open_process_args_full sxopt (Array.of_list (sxopt :: args)) (Unix.environment ())
  in
  close_out inp;
  let stderr = In_channel.input_all err in
  ignore (In_channel.input_all out);
  match Unix.close_process_full (out, inp, err) with
  | Unix.WEXITED n -> (n, stderr)
  | _ -> Alcotest.fail "sxopt killed by a signal"

(* A deeply nested source is a typed frontend error: exit 1 with the
   parser's message from the CLI, a cached [frontend] reply from the
   daemon (so a resend costs a lookup, not another descent). *)
let test_nesting_bound () =
  let depth = 100_000 in
  let deep =
    Printf.sprintf "void main() { int x = %s1%s; print_int(x); }"
      (String.make depth '(') (String.make depth ')')
  in
  let file = Filename.temp_file "sxe-deep" ".minij" in
  Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc deep);
  let code, err = sxopt_status [ "compile"; file ] in
  Sys.remove file;
  Alcotest.(check int) "sxopt compile exit code" 1 code;
  Alcotest.(check bool)
    ("sxopt compile message: " ^ err)
    true
    (String.starts_with ~prefix:"error: parse error (line 1): nesting deeper than" err);
  with_server (fun path _t ->
      let c = Client.connect path in
      let r1 = Json.parse (Client.compile c deep) in
      Alcotest.(check (option string)) "daemon category" (Some "frontend") (Json.str "error" r1);
      Alcotest.(check (option bool)) "first is a miss" (Some false) (Json.bool "cached" r1);
      let r2 = Json.parse (Client.compile c deep) in
      Alcotest.(check (option string)) "resend category" (Some "frontend") (Json.str "error" r2);
      Alcotest.(check (option bool)) "resend is a hit" (Some true) (Json.bool "cached" r2);
      Client.close c)

let suite =
  [
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json strings" `Quick test_json_strings;
    Alcotest.test_case "json hostile input" `Quick test_json_hostile;
    Alcotest.test_case "json accessors" `Quick test_json_accessors;
    Alcotest.test_case "latency histogram" `Quick test_hist;
    Alcotest.test_case "cache basics" `Quick test_cache_basic;
    Alcotest.test_case "cache key sensitivity" `Quick test_cache_key_sensitivity;
    Alcotest.test_case "cache eviction" `Quick test_cache_eviction;
    Alcotest.test_case "compile_one pipeline" `Quick test_compile_one;
    Alcotest.test_case "compile_one errors json" `Quick
      test_compile_one_matches_certifier;
    Alcotest.test_case "serve: ping and request errors" `Quick
      test_serve_ping_and_errors;
    Alcotest.test_case "serve: verdict parity" `Quick test_serve_verdict_parity;
    Alcotest.test_case "serve: cache hits" `Quick test_serve_cache_hit;
    Alcotest.test_case "serve: overload backpressure" `Quick test_serve_overload;
    Alcotest.test_case "serve: over-long request line" `Quick
      test_serve_overlong_line;
    Alcotest.test_case "serve: client disconnect" `Quick
      test_serve_client_disconnect;
    Alcotest.test_case "serve: concurrent clients" `Quick test_serve_concurrent;
    Alcotest.test_case "serve: graceful drain" `Quick test_serve_drain;
    Alcotest.test_case "baseline: legacy 5-column format" `Quick
      test_baseline_legacy_format;
    Alcotest.test_case "monoclock monotonicity" `Quick test_monoclock;
    Alcotest.test_case "every JSON artifact parses" `Quick test_json_artifacts_parse;
    Alcotest.test_case "serve: a hit overtakes a slow miss" `Quick
      test_serve_hit_overtakes_miss;
    Alcotest.test_case "serve: in-flight misses coalesce" `Quick test_serve_coalesce_inflight;
    Alcotest.test_case "serve: stop waits for in-flight compile" `Quick
      test_serve_stop_inflight;
    Alcotest.test_case "serve: nesting bound is a cached frontend error" `Quick
      test_nesting_bound;
  ]

(** The repository's one JSON codec: the daemon protocol, the
    certify/lint/audit reports, SARIF and the bench artifacts are all
    built as {!t} values and rendered by {!to_string}, so every writer
    escapes strings the same way. No external dependency.

    Integers are kept exact in [int64]; a number with a fraction or
    exponent parses as [Float]. Strings must be valid JSON strings
    (escape sequences and [\uXXXX] are decoded; surrogate pairs are
    recombined to UTF-8). Strings are emitted as their bytes, so UTF-8
    text stays UTF-8. *)

type t =
  | Null
  | Bool of bool
  | Int of int64
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Malformed input, with a byte offset in the message. *)

val parse : string -> t
(** Parse one JSON value; trailing non-whitespace raises. Malformed
    input of any shape raises {!Parse_error} and nothing else — no
    [Failure] from number/escape decoding, no [Stack_overflow] from
    deep nesting (containers beyond 512 levels are rejected) — so a
    server loop needs to catch exactly one exception. *)

val to_string : t -> string
(** Compact (no-whitespace) rendering. Object member order is
    preserved. *)

val escape : string -> string
(** JSON string-body escaping (no surrounding quotes). *)

val of_int : int -> t
(** [Int] of a native integer. *)

(** {2 Object accessors} — all total; [None]/default on absent member
    or wrong type. *)

val member : string -> t -> t option
val str : ?default:string -> string -> t -> string option
val int : ?default:int64 -> string -> t -> int64 option
val bool : ?default:bool -> string -> t -> bool option

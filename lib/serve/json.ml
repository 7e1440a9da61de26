(* The daemon's JSON codec is Sxe_util.Json; this alias keeps the
   Sxe_serve.Json path that sxbench/ compiles against. *)
include Sxe_util.Json

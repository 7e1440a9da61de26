(** Target-architecture models (Section 1).

    The paper contrasts two 64-bit targets:
    - {b IA64}: memory reads zero-extend ([ld1]/[ld2]/[ld4]); every
      sign-extension is explicit ([sxt]); 32-bit compares exist ([cmp4]),
      so bounds checks need no extension. Zero-extending loads make
      Theorems 1 and 3 widely applicable.
    - {b PPC64}: has {e implicit sign extension} loads for 16- and 32-bit
      reads ([lha], [lwa]) but not for bytes ([lbz] zero-extends); explicit
      [exts*] otherwise; 32-bit compares exist ([cmpw]).

    The model only states how sub-64-bit reads extend; everything else the
    optimizer needs is uniform across both. *)

open Sxe_ir.Types

type t = {
  name : string;
  load_ext : width -> lext;
      (** how a memory read of the given width fills the upper bits *)
}

let ia64 = { name = "IA64"; load_ext = (fun _ -> LZero) }

let ppc64 =
  {
    name = "PPC64";
    load_ext = (fun w -> match w with W16 | W32 -> LSign | _ -> LZero);
  }

let names = [ ("ia64", ia64); ("ppc64", ppc64) ]

(* Exact quantiles of raw samples and the peak resident set of a
   process. Quantiles interpolate linearly between order statistics
   (numpy's default), so no bucketing error enters a bound. *)

let quantile (xs : float array) q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Measure.quantile: no samples";
  let s = Array.copy xs in
  Array.sort compare s;
  let h = q *. float_of_int (n - 1) in
  let lo = int_of_float h in
  let hi = min (n - 1) (lo + 1) in
  s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))

let median xs = quantile xs 0.5

(* VmHWM from a /proc/<pid>/status file, in MB. *)
let peak_rss_mb status_path =
  let ic = open_in status_path in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith ("no VmHWM in " ^ status_path)
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

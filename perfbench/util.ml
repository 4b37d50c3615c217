(** Shared helpers: clock, seeded draws, order statistics, peak memory
    and the one-line JSON result every run ends with. *)

let now () = Unix.gettimeofday ()

(** Seconds elapsed while running [f]. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Machine speed                                                       *)
(* ------------------------------------------------------------------ *)

(** The benchmark shares its machine with other tenants, which slow whole
    stretches of a run by up to half.  End-to-end times are therefore
    normalised to a machine-speed probe ([calib.exe], a separate process
    that links none of the program) run before and after each measured
    unit: a time is reported as what it would have been had the probe
    taken [reference_s], its best time on the defining machine. *)
let reference_s = 0.0163

let calibrate () =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "calib.exe" in
  let ic = Unix.open_process_args_in exe [| exe |] in
  let line = In_channel.input_line ic in
  match (Unix.close_process_in ic, line) with
  | Unix.WEXITED 0, Some l -> float_of_string l
  | _ -> failwith (exe ^ " failed")

let last_probe = ref None

(** Run [f] and return its result with the factor that converts times
    measured during it to reference machine speed (1 when [on] is false:
    the traced run reports raw times). *)
let normalised ~on f =
  if not on then (f (), 1.)
  else begin
    let before = match !last_probe with Some c -> c | None -> calibrate () in
    let r = f () in
    let after = calibrate () in
    last_probe := Some after;
    (r, reference_s /. ((before +. after) /. 2.))
  end

(* ------------------------------------------------------------------ *)
(* Seeded draws                                                        *)
(* ------------------------------------------------------------------ *)

(** A deterministic stream of non-negative ints, one per [(seed, salt)]:
    the same LCG constants the program's own generators use. *)
type rng = { mutable s : int64 }

let rng ~seed ~salt =
  { s = Int64.(add (mul (of_int seed) 0x9e3779b97f4a7c15L) (of_int (salt * 7919 + 1))) }

let next (r : rng) bound =
  r.s <- Int64.add (Int64.mul r.s 6364136223846793005L) 1442695040888963407L;
  Int64.to_int (Int64.shift_right_logical r.s 33) mod max 1 bound

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(** [p]-th percentile (0..100), linear interpolation between closest
    ranks; [0.] for an empty sample. *)
let percentile p (l : float list) =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let r = p /. 100. *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = percentile 50. l
let sum l = List.fold_left ( +. ) 0. l

let geomean l =
  match l with
  | [] -> 0.
  | _ -> exp (sum (List.map log l) /. float_of_int (List.length l))

let ratio a b = if b = 0. then 0. else a /. b
let pct a b = 100. *. ratio a b

(** Peak resident set of this process (VmHWM), in MB; falls back to the
    OCaml heap's high-water mark where /proc is unavailable. *)
let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
              (fun kb -> Some (float_of_int kb /. 1024.))
          | Some _ -> scan ()
        in
        scan ())
  in
  match try from_proc () with Sys_error _ -> None with
  | Some mb -> mb
  | None ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.

(* ------------------------------------------------------------------ *)
(* Failures and the result line                                        *)
(* ------------------------------------------------------------------ *)

(** Operations the oracles rejected, each with its failing input; every
    one is reported on stderr, none is filtered out. *)
let failures : string list ref = ref []

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: FAILED " ^ s);
      failures := s :: !failures)
    fmt

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

(** The run's last stdout line: [correct], [attempted], [failed] and each
    metric with its unit. *)
let print_result ~attempted ~failed (metrics : (string * float * string) list) =
  let body =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed
    (String.concat ", " body)

(** Workload [corpus-pipeline]: a seeded draw of the benchmark corpus
    through the transactional standard stack with vec (licm, dead, vec,
    doall, helix, dswp, at 4x kernel fuel, as [noelle-validate --vec]
    runs it), then Psim on the pristine module and on the result.

    An operation is one pass of the drawn corpus.  Its time is what a
    tool writer waits for; the Psim cycle ratio is the speed of the code
    that comes out. *)

open Util

(** The pattern classes of the [Bsuite.Kernels] header. *)
let classes =
  [
    [ "bitcount"; "susan"; "basicmath"; "blackscholes"; "streamcluster"; "lbm";
      "namd"; "x264" ];
    [ "swaptions"; "canneal" ];
    [ "ferret"; "dedup"; "adpcm" ];
    [ "crc32"; "sha"; "xz"; "mcf" ];
    [ "dijkstra"; "stringsearch"; "qsort" ];
    [ "montecarlo"; "histogram"; "deadcalls" ];
  ]

(** Per kernel at the commit that defined this benchmark: seconds for one
    pass (pipeline plus both Psim runs, 2-core x86-64 container) and the
    Psim speedup.  Used only to balance draws, never as a result. *)
let profile =
  [
    ("bitcount", 7.96, 3.639); ("susan", 8.37, 1.691); ("basicmath", 1.03, 2.312);
    ("blackscholes", 1.39, 2.716); ("streamcluster", 3.53, 3.210);
    ("lbm", 13.40, 1.026); ("namd", 6.51, 4.640); ("x264", 7.19, 2.855);
    ("swaptions", 6.04, 2.895); ("canneal", 1.18, 0.999); ("ferret", 3.55, 1.031);
    ("dedup", 5.26, 1.007); ("adpcm", 5.08, 1.182); ("crc32", 3.77, 1.030);
    ("sha", 1.04, 1.144); ("xz", 2.79, 1.177); ("mcf", 3.65, 1.011);
    ("dijkstra", 3.89, 0.792); ("stringsearch", 4.83, 2.554);
    ("qsort", 6.43, 1.035); ("montecarlo", 0.68, 1.000);
    ("histogram", 5.36, 1.294); ("deadcalls", 0.29, 1.000);
  ]

(** Draws are one kernel per class whose profiled pass time lies within
    6% of 14 s and whose profiled speedup geomean lies within 4% of 1.4,
    so that every seed's draw costs and speeds up alike. *)
let target_s = 14.0
let target_speedup = 1.4

let balanced =
  let rec product = function
    | [] -> [ [] ]
    | c :: rest ->
      let tails = product rest in
      List.concat_map (fun k -> List.map (fun t -> k :: t) tails) c
  in
  let prof k =
    let _, s, x = List.find (fun (n, _, _) -> n = k) profile in
    (s, x)
  in
  List.filter
    (fun draw ->
      let cost = sum (List.map (fun k -> fst (prof k)) draw) in
      let gm = geomean (List.map (fun k -> snd (prof k)) draw) in
      Float.abs (cost -. target_s) /. target_s <= 0.06
      && Float.abs (log (gm /. target_speedup)) <= 0.04)
    (product classes)

(** The cheapest kernels, two of which make a [--tiny] draw. *)
let tiny_pool = [ "deadcalls"; "montecarlo"; "sha"; "basicmath"; "canneal"; "blackscholes" ]

let draw ~tiny ~seed =
  let r = rng ~seed ~salt:1 in
  if tiny then
    let i = next r (List.length tiny_pool) in
    let j = (i + 1 + next r (List.length tiny_pool - 1)) mod List.length tiny_pool in
    [ List.nth tiny_pool i; List.nth tiny_pool j ]
  else List.nth balanced (next r (List.length balanced))

let kernel name =
  match Bsuite.Kernels.find name with
  | Some k -> k
  | None -> failwith ("unknown kernel " ^ name)

(* ------------------------------------------------------------------ *)
(* One kernel through the pipeline                                     *)
(* ------------------------------------------------------------------ *)

(** Tool outcomes parsed from pass summaries ("vectorized 2 loops (1
    declined)", "hoisted 3 insts from 2 loops", ...): the first number is
    what the tool applied, the one before " declined" what it refused. *)
let tool_counts : (string, float * float) Hashtbl.t = Hashtbl.create 8

let note_summary tool s =
  let number_before i =
    let j = ref i in
    while !j > 0 && s.[!j - 1] >= '0' && s.[!j - 1] <= '9' do decr j done;
    if !j < i then float_of_string (String.sub s !j (i - !j)) else 0.
  in
  let first =
    let n = String.length s in
    let i = ref 0 in
    while !i < n && not (s.[!i] >= '0' && s.[!i] <= '9') do incr i done;
    let j = ref !i in
    while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
    if !j > !i then float_of_string (String.sub s !i (!j - !i)) else 0.
  in
  let declined =
    let key = " declined" in
    let rec find i =
      if i + String.length key > String.length s then 0.
      else if String.sub s i (String.length key) = key then number_before i
      else find (i + 1)
    in
    find 0
  in
  let a, d = Option.value ~default:(0., 0.) (Hashtbl.find_opt tool_counts tool) in
  Hashtbl.replace tool_counts tool (a +. first, d +. declined)

let traced_pass (p : Noelle.Pipeline.pass) =
  {
    p with
    Noelle.Pipeline.papply =
      (fun m ->
        Tracer.span ("tools." ^ p.Noelle.Pipeline.pname) (fun () ->
            let s = p.Noelle.Pipeline.papply m in
            if !Tracer.on then note_summary p.Noelle.Pipeline.pname s;
            s));
  }

type kres = {
  kname : string;
  ms : float;
  result : (Noelle.Pipeline.report * int64 * int64 * string, string) result;
      (** report, pristine cycles, result cycles, result output *)
}

let render v out = Ir.Interp.v_to_string v ^ "\n" ^ out

let run_kernel (name, pristine, m) : kres =
  let fuel = 4 * (kernel name).Bsuite.Kernels.fuel in
  Tracer.with_op name @@ fun () ->
  let result, secs =
    timed (fun () ->
        try
          let n = Noelle.create m in
          let base = Ntools.Passes.config ~fuel n in
          let config =
            {
              base with
              Noelle.Pipeline.exec =
                (fun m ~args ~fuel ->
                  Tracer.span "psim.exec" (fun () -> base.Noelle.Pipeline.exec m ~args ~fuel));
              on_change =
                (fun () -> Tracer.span "pipeline.invalidate" base.Noelle.Pipeline.on_change);
            }
          in
          let passes = List.map traced_pass (Ntools.Passes.standard ~vec:true n) in
          let report =
            Tracer.span "pipeline.gate" (fun () -> Noelle.Pipeline.run ~config m passes)
          in
          let _, _, seq =
            Tracer.span "psim.run" (fun () -> Psim.Runtime.run_sequential ~fuel pristine)
          in
          let v, out, par, _ = Tracer.span "psim.run" (fun () -> Psim.Runtime.run ~fuel m) in
          Ok (report, seq, par, render v out)
        with e -> Error (Printexc.to_string e))
  in
  { kname = name; ms = secs *. 1000.; result }

(** The oracle's reference: the pristine module under the sequential
    interpreter ([Ir.Interp.run], which feeds the [interp.steps] counter). *)
let reference name pristine =
  let fuel = 4 * (kernel name).Bsuite.Kernels.fuel in
  Tracer.with_op name @@ fun () ->
  Tracer.span "interp" (fun () ->
      match Ir.Interp.run ~fuel pristine with
      | v, out -> render v out
      | exception Ir.Interp.Trap msg -> "trap: " ^ msg)

(** Check one kernel's result; returns its speedup when it passed.  A
    rollback is not a failure (it is counted in [pipeline.rolled_back]). *)
let check ~inject refs (r : kres) =
  match r.result with
  | Error exn ->
    fail "corpus-pipeline %s: pipeline raised %s" r.kname exn;
    None
  | Ok (report, seq, par, out) ->
    let out = if inject then out ^ "injected\n" else out in
    let expected = List.assoc r.kname refs in
    if not report.Noelle.Pipeline.final_ok then begin
      fail "corpus-pipeline %s: final module not ok" r.kname;
      None
    end
    else if out <> expected then begin
      fail "corpus-pipeline %s: Psim output %S differs from the pristine interpreter's %S"
        r.kname out expected;
      None
    end
    else Some (Int64.to_float seq /. Int64.to_float par)

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

let run (o : Opts.t) =
  let names = draw ~tiny:o.tiny ~seed:o.seed in
  prerr_endline ("perfbench: draw " ^ String.concat " " names);
  let normalised f = normalised ~on:(not o.trace) f in
  let setups = ref [] in
  (* set-up: compile each drawn kernel from Mini-C, a pristine copy and
     one the pipeline transforms in place *)
  let setup () =
    let (mods, secs), k =
      normalised (fun () ->
          timed (fun () ->
              List.map
                (fun name ->
                  let compile () =
                    Tracer.span "minic.lower" (fun () -> Bsuite.Kernels.compile (kernel name))
                  in
                  let pristine = compile () in
                  (name, pristine, compile ()))
                names))
    in
    setups := (secs *. k) :: !setups;
    mods
  in
  let pass () =
    List.map
      (fun km ->
        let r, k = normalised (fun () -> run_kernel km) in
        { r with ms = r.ms *. k })
      (setup ())
  in
  let references mods =
    List.map (fun (name, pristine, _) -> (name, reference name pristine)) mods
  in
  let passes = ref [] in
  let refs, traced =
    if o.trace then begin
      let untraced = pass () in
      let (traced, refs), t =
        Tracer.traced_round (fun () ->
            Hashtbl.reset tool_counts;
            let mods = setup () in
            (List.map run_kernel mods, references mods))
      in
      passes := [ traced; untraced ];
      (refs, Some t)
    end
    else begin
      let refs = references (setup ()) in
      setups := [];
      let t_start = now () in
      let last = ref 0. in
      (* at least two passes, so each kernel's best time has a second
         sample even when one pass overruns the window *)
      while List.length !passes < (if o.tiny then 1 else 2)
            || now () -. t_start +. !last <= o.seconds do
        let t0 = now () in
        passes := pass () :: !passes;
        last := now () -. t0
      done;
      (refs, None)
    end
  in
  let results = List.concat !passes in
  let speedups = List.map (check ~inject:o.inject refs) results in
  let failed = List.length (List.filter Option.is_none speedups) in
  let attempted = List.length results in
  (* each kernel's best time over the passes; the best pass is their sum *)
  let best name =
    List.fold_left (fun acc r -> if r.kname = name then Float.min acc r.ms else acc) infinity results
  in
  let best_pass_ms = sum (List.map best names) in
  let pass_ms = List.map (fun rs -> sum (List.map (fun r -> r.ms) rs)) !passes in
  let insts =
    List.fold_left
      (fun a name ->
        let m = Bsuite.Kernels.compile (kernel name) in
        List.fold_left (fun a f -> a + Ir.Func.num_insts f) a (Ir.Irmod.defined_functions m))
      0 names
  in
  (* every pass computes the same deterministic speedups: use the last *)
  let quality = geomean (List.filter_map Fun.id (List.filteri (fun i _ -> i < List.length names) speedups)) in
  Printf.eprintf "perfbench: %d passes (%s ms), best %.0f ms, speedup geomean %.4f\n"
    (List.length pass_ms)
    (String.concat ", " (List.map (Printf.sprintf "%.0f") pass_ms))
    best_pass_ms quality;
  match traced with
  | Some t ->
    let extra name =
      if name = "failed_pct" then pct (float_of_int failed) (float_of_int attempted)
      else
        match String.split_on_char '.' name with
        | [ "tools"; tool; what ] -> (
          let a, d = Option.value ~default:(0., 0.) (Hashtbl.find_opt tool_counts tool) in
          match what with "applied" -> a | _ -> d)
        | _ -> 0.
    in
    Tracer.print_shares t;
    ( attempted,
      failed,
      Tracer.per_layer t
        ~traced_wall_s:(List.nth pass_ms 0 /. 1000.)
        ~untraced_wall_s:(List.nth pass_ms 1 /. 1000.)
        ~extra )
  | None ->
    ( attempted,
      failed,
      [
        ("setup_s", median !setups, "s");
        ("peak_rss_mb", peak_rss_mb (), "MB");
        ("p50_ms", best_pass_ms, "ms");
        ("tail_ms", best_pass_ms, "ms");
        ("ops_per_s", ratio (float_of_int (List.length names)) (best_pass_ms /. 1000.), "1/s");
        ("insts_per_s", ratio (float_of_int insts) (best_pass_ms /. 1000.), "1/s");
        ("quality", quality, "ratio");
      ] )

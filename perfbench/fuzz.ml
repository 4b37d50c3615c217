(** Workload [fuzz-analyze]: seeded [Bsuite.Generator] programs, lowered
    by [Minic.Lower] and run through the analysis stack only (Andersen,
    PDG and bounds per function; loops with SCC DAG, invariants and
    induction variables per loop; then [Noelle.Check.run]).  Nothing is
    interpreted or transformed, so the interpreter is bypassed.

    An operation is one program.  The seed draws 31 programs in four size
    tiers by source length (about 9.5 source bytes per IR instruction);
    the tier counts put the median in the middle of tier B and the 90th
    percentile in the middle of tier C, so neither rests on one program.
    Rounds repeat the same programs. *)

open Util

type tier = {
  tname : string;
  cfg : Bsuite.Generator.cfg;
  count : int;
  window : (int * int) option;  (** accepted source length, bytes *)
}

let deep d s = { Bsuite.Generator.default_cfg with max_depth = d; max_stmts = s }

(** Size cap: 21,800 source bytes, about 2.3k IR instructions.  Depth-4
    programs grow superlinearly in analysis time (a 2.3k-instruction
    program takes about 2.5 s) and one with 24 statements per block did
    not finish in 10 minutes, so larger draws are rejected. *)
let cap = 21_800

let tiers ~tiny =
  if tiny then
    [ { tname = "A"; cfg = Bsuite.Generator.default_cfg; count = 3; window = None };
      { tname = "B"; cfg = deep 3 8; count = 2; window = Some (4_000, 4_600) } ]
  else
    [ { tname = "A"; cfg = Bsuite.Generator.default_cfg; count = 6; window = None };
      { tname = "B"; cfg = deep 3 8; count = 18; window = Some (4_000, 4_600) };
      { tname = "C"; cfg = deep 4 12; count = 6; window = Some (9_800, 10_800) };
      { tname = "D"; cfg = deep 4 12; count = 1; window = Some (20_500, cap) } ]

(** The seed's programs: (tier, generator seed, source). *)
let programs ~tiny ~seed =
  List.concat_map
    (fun t ->
      let r = rng ~seed ~salt:(Char.code t.tname.[0]) in
      List.init t.count (fun _ ->
          let rec draw attempts =
            if attempts = 0 then failwith ("no program fits tier " ^ t.tname);
            let g = next r 1_000_000_000 in
            let src = Bsuite.Generator.program ~cfg:t.cfg g in
            match t.window with
            | Some (lo, hi) when String.length src < lo || String.length src > hi ->
              draw (attempts - 1)
            | _ -> (t.tname, g, src)
          in
          draw 100_000))
    (tiers ~tiny)

(* ------------------------------------------------------------------ *)
(* One program through the analysis stack                              *)
(* ------------------------------------------------------------------ *)

type pres = {
  label : string;  (** tier and generator seed: the failing input *)
  insts : int;
  ms : float;
  result : (Ir.Irmod.t * Noelle.t * Noelle.Check.report, string) result;
}

let analyze idx (tier, g, src) : pres =
  let label = Printf.sprintf "tier %s generator seed %d" tier g in
  Tracer.with_op (Printf.sprintf "prog-%d" idx) @@ fun () ->
  let result, secs =
    timed (fun () ->
        try
          let m = Tracer.span "minic.lower" (fun () -> Minic.Lower.compile ~name:"fuzz" src) in
          let n = Noelle.create m in
          let fns = Ir.Irmod.defined_functions m in
          ignore (Tracer.span "andersen" (fun () -> Noelle.andersen n));
          Tracer.span "pdg" (fun () -> List.iter (fun f -> ignore (Noelle.pdg n f)) fns);
          Tracer.span "bounds" (fun () -> List.iter (fun f -> ignore (Noelle.bounds n f)) fns);
          Tracer.span "loops" (fun () ->
              List.iter
                (fun f ->
                  List.iter
                    (fun l ->
                      ignore (Noelle.scc_dag n l);
                      ignore (Noelle.invariants n l);
                      ignore (Noelle.induction_variables n l))
                    (Noelle.loops n f))
                fns);
          let report = Tracer.span "check" (fun () -> Noelle.Check.run m) in
          Ok (m, n, report)
        with e -> Error (Printexc.to_string e))
  in
  let insts =
    match result with
    | Ok (m, _, _) ->
      List.fold_left (fun a f -> a + Ir.Func.num_insts f) 0 (Ir.Irmod.defined_functions m)
    | Error _ -> 0
  in
  { label; insts; ms = secs *. 1000.; result }

(* ------------------------------------------------------------------ *)
(* Oracles (outside the timed region)                                  *)
(* ------------------------------------------------------------------ *)

(** Interpreter steps over which loop trip counts are measured.  A run
    that stops at this budget still checks [measured <= bound *
    invocations]; exact bounds must match only on completed runs (the
    [noelle-bounds] rule). *)
let trip_fuel = 100_000

let self_recursive (f : Ir.Func.t) =
  Ir.Func.fold_insts
    (fun acc (i : Ir.Instr.inst) ->
      acc
      || match i.Ir.Instr.op with
         | Ir.Instr.Call (Ir.Instr.Glob g, _) -> g = f.Ir.Func.fname
         | _ -> false)
    false f

(** Interpreter-measured loop trips against the static bounds; returns
    the first violation. *)
let check_trips (m : Ir.Irmod.t) (n : Noelle.t) : string option =
  let headx = Hashtbl.create 32 and invocations = Hashtbl.create 32 in
  let loops_of = Hashtbl.create 8 in
  let fns = List.filter (fun f -> not (self_recursive f)) (Ir.Irmod.defined_functions m) in
  List.iter
    (fun (f : Ir.Func.t) ->
      Hashtbl.replace loops_of f.Ir.Func.fname
        (List.map
           (fun (l : Ir.Loopnest.loop) -> (l.Ir.Loopnest.header, l.Ir.Loopnest.blocks))
           (Ir.Loopnest.compute f).Ir.Loopnest.loops))
    fns;
  let last = Hashtbl.create 8 in
  let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  let on_block (f : Ir.Func.t) bid =
    let fn = f.Ir.Func.fname in
    List.iter
      (fun (header, blocks) ->
        if header = bid then begin
          bump headx (fn, header);
          match Hashtbl.find_opt last fn with
          | Some prev when Ir.Loopnest.IntSet.mem prev blocks -> ()
          | _ -> bump invocations (fn, header)
        end)
      (Option.value ~default:[] (Hashtbl.find_opt loops_of fn));
    Hashtbl.replace last fn bid
  in
  let completed =
    match
      Ir.Interp.run_state ~fuel:trip_fuel m ~configure:(fun st ->
          st.Ir.Interp.hooks.Ir.Interp.on_block <- Some on_block)
    with
    | _ -> true
    | exception Ir.Interp.Trap _ -> false
  in
  let get tbl k = Int64.of_int (Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  List.find_map
    (fun (f : Ir.Func.t) ->
      List.find_map
        (fun (lb : Ir.Bounds.loop_bound) ->
          let k = (f.Ir.Func.fname, lb.Ir.Bounds.lheader) in
          let hx = get headx k and inv = get invocations k in
          match lb.Ir.Bounds.lheadx with
          | Ir.Bounds.Unbounded when completed && hx > 0L ->
            Some (lb.Ir.Bounds.lkey ^ ": claimed unbounded yet terminated")
          | (Ir.Bounds.Exact _ | Ir.Bounds.Upper _) as trip -> (
            match Ir.Bounds.trip_const trip with
            | Some b when hx > Int64.mul b inv ->
              Some (Printf.sprintf "%s: %Ld header executions over %Ld invocations exceed bound %Ld"
                      lb.Ir.Bounds.lkey hx inv b)
            | Some b
              when completed && inv > 0L && Ir.Bounds.trip_is_exact trip
                   && hx <> Int64.mul b inv ->
              Some (Printf.sprintf "%s: exact bound %Ld, measured %Ld over %Ld invocations"
                      lb.Ir.Bounds.lkey b hx inv)
            | _ -> None)
          | _ -> None)
        (Noelle.bounds n f).Ir.Bounds.floops)
    fns

(** Check one program; returns its PDG (disproved, total) memory pairs
    when it passed. *)
let check ~inject (p : pres) =
  match p.result with
  | Error exn ->
    fail "fuzz-analyze %s: analysis raised %s" p.label exn;
    None
  | Ok (m, n, report) -> (
    let sparse = Noelle.andersen n in
    let naive = Ir.Andersen.solve_naive m in
    let stack = [ Ir.Alias.baseline; Ir.Andersen.analysis sparse ] in
    let fns = Ir.Irmod.defined_functions m in
    let pdg_mismatch =
      List.find_opt
        (fun f ->
          let bucketed = Noelle.pdg n f in
          let plain = Noelle.Pdg.build ~stack m f in
          let observed = Noelle.Pdg.payload bucketed ^ if inject then "\n0 0 injected" else "" in
          observed <> Noelle.Pdg.payload plain
          || bucketed.Noelle.Pdg.mem_pairs_total <> plain.Noelle.Pdg.mem_pairs_total)
        fns
    in
    let errors = Noelle.Check.errors report in
    match () with
    | _ when Ir.Andersen.dump_pts sparse <> Ir.Andersen.dump_pts naive
             || Ir.Andersen.dump_touched sparse <> Ir.Andersen.dump_touched naive
             || Ir.Andersen.solution_fp sparse <> Ir.Andersen.solution_fp naive ->
      fail "fuzz-analyze %s: sparse Andersen differs from solve_naive" p.label;
      None
    | _ when pdg_mismatch <> None ->
      fail "fuzz-analyze %s: bucketed PDG of %s differs from the unbucketed PDG" p.label
        (Option.get pdg_mismatch).Ir.Func.fname;
      None
    | _ when errors <> [] ->
      fail "fuzz-analyze %s: %d check errors, first %s" p.label (List.length errors)
        (List.hd errors).Noelle.Check.did;
      None
    | _ -> (
      match check_trips m n with
      | Some why ->
        fail "fuzz-analyze %s: trip count exceeds static bound: %s" p.label why;
        None
      | None ->
        let pdgs = List.map (Noelle.pdg n) fns in
        Some
          ( sum (List.map (fun q -> float_of_int q.Noelle.Pdg.mem_pairs_disproved) pdgs),
            sum (List.map (fun q -> float_of_int q.Noelle.Pdg.mem_pairs_total) pdgs) )))

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

let describe ~tiny ~seed =
  String.concat " "
    (List.map
       (fun (t, g, src) -> Printf.sprintf "%s:%d:%dB" t g (String.length src))
       (programs ~tiny ~seed))

(** What a later round must reproduce exactly: the analyses' rendered
    results. *)
let digest (p : pres) =
  match p.result with
  | Error e -> "raised " ^ e
  | Ok (m, n, report) ->
    let fns = Ir.Irmod.defined_functions m in
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            (Ir.Andersen.solution_fp (Noelle.andersen n)
             :: string_of_int (List.length report.Noelle.Check.diags)
             :: List.concat_map
                  (fun f ->
                    [ Noelle.Pdg.payload (Noelle.pdg n f);
                      Ir.Bounds.summary_payload (Noelle.bounds n f) ])
                  fns)))

let run (o : Opts.t) =
  prerr_endline ("perfbench: draw " ^ describe ~tiny:o.tiny ~seed:o.seed);
  let setups = ref [] in
  let normalised f = normalised ~on:(not o.trace) f in
  let round_ () =
    let (progs, secs), k =
      normalised (fun () -> timed (fun () -> programs ~tiny:o.tiny ~seed:o.seed))
    in
    setups := (secs *. k) :: !setups;
    (* normalise in chunks of about a second of analysis (estimated from
       source length), so each probe is close in time to what it corrects *)
    let est (_, (_, _, src)) = 5e-9 *. (float_of_int (String.length src) ** 2.) in
    let chunks =
      List.fold_left
        (fun acc ip ->
          match acc with
          | (cur, s) :: rest when s < 1.0 -> (ip :: cur, s +. est ip) :: rest
          | _ -> ([ ip ], est ip) :: acc)
        [] (List.mapi (fun i p -> (i, p)) progs)
    in
    List.concat_map
      (fun (chunk, _) ->
        let ps, k = normalised (fun () -> List.map (fun (i, p) -> analyze i p) (List.rev chunk)) in
        List.map (fun p -> { p with ms = p.ms *. k }) ps)
      (List.rev chunks)
  in
  (* the first round goes through the oracles; every later round must
     reproduce its results exactly *)
  let first = ref [||] and rounds = ref [] and failed = ref 0 and attempted = ref 0 in
  let quality = ref 0. and diagnostics = ref 0 and total_insts = ref 0. in
  let account (ps : pres list) =
    attempted := !attempted + List.length ps;
    rounds := List.map (fun p -> p.ms) ps :: !rounds;
    if !first = [||] then begin
      let checked = List.map (check ~inject:o.inject) ps in
      failed := List.length (List.filter Option.is_none checked);
      let pairs = List.filter_map Fun.id checked in
      quality := ratio (sum (List.map fst pairs)) (sum (List.map snd pairs));
      total_insts := float_of_int (List.fold_left (fun a p -> a + p.insts) 0 ps);
      first := Array.of_list (List.map digest ps)
    end
    else
      List.iteri
        (fun i p ->
          if digest p <> !first.(i) then begin
            incr failed;
            fail "fuzz-analyze %s: results differ from the first round's" p.label
          end)
        ps
  in
  let traced =
    if o.trace then begin
      let untraced = round_ () in
      account untraced;
      let ps, t = Tracer.traced_round round_ in
      List.iter
        (fun p ->
          match p.result with
          | Ok (_, _, r) -> diagnostics := !diagnostics + List.length r.Noelle.Check.diags
          | Error _ -> ())
        ps;
      account ps;
      let round_s ps = sum (List.map (fun p -> p.ms) ps) /. 1000. in
      Some (t, round_s untraced, round_s ps)
    end
    else begin
      let t_start = now () and last = ref 0. in
      (* at least three rounds, so each program's best time has three
         samples even when a round overruns the window *)
      while List.length !rounds < (if o.tiny then 1 else 3)
            || now () -. t_start +. !last <= o.seconds do
        let t0 = now () in
        account (round_ ());
        last := now () -. t0
      done;
      None
    end
  in
  (* each program's best time over the rounds *)
  let best =
    match !rounds with
    | [] -> []
    | r :: rs -> List.fold_left (List.map2 Float.min) r rs
  in
  Printf.eprintf "perfbench: %d programs x %d rounds, best p50 %.1f ms, p90 %.1f ms\n"
    (List.length best) (List.length !rounds) (median best) (percentile 90. best);
  match traced with
  | Some (t, untraced_wall_s, traced_wall_s) ->
    let extra = function
      | "failed_pct" -> pct (float_of_int !failed) (float_of_int !attempted)
      | "check.diagnostics" -> float_of_int !diagnostics
      | _ -> 0.
    in
    Tracer.print_shares t;
    (!attempted, !failed, Tracer.per_layer t ~traced_wall_s ~untraced_wall_s ~extra)
  | None ->
    let best_s = sum best /. 1000. in
    ( !attempted,
      !failed,
      [
        ("setup_s", median !setups, "s");
        ("peak_rss_mb", peak_rss_mb (), "MB");
        ("p50_ms", median best, "ms");
        ("tail_ms", percentile 90. best, "ms");
        ("ops_per_s", ratio (float_of_int (List.length best)) best_s, "1/s");
        ("insts_per_s", ratio !total_insts best_s, "1/s");
        ("quality", !quality, "ratio");
      ] )

(** The traced run's span recorder.

    Spans are recorded by the benchmark itself around its calls into each
    layer's public functions (no tracing is added inside the program).
    Each span keeps its name, start, end, parent and the operation or
    request it belongs to, plus the minor-heap words allocated while it
    was open.  A layer's self time is its spans' durations minus the part
    covered by child spans; its allocation is attributed the same way.
    When tracing is off every entry point is one branch. *)

let on = ref false

type span = {
  id : int;
  mutable name : string;
  op : string;
  parent : int;  (** id of the enclosing span, [-1] at the root *)
  t0 : float;  (** µs *)
  mutable t1 : float;
  w0 : float;  (** [Gc.minor_words] at open *)
  mutable w1 : float;
}

let spans : span list ref = ref [] (* newest first *)
let count = ref 0
let stack : int list ref = ref []
let cur_op = ref ""

let reset () =
  spans := [];
  count := 0;
  stack := [];
  cur_op := ""

(** Run [f] with [id] as the operation (kernel, program, request) that
    the spans opened under it belong to. *)
let with_op id f =
  if not !on then f ()
  else begin
    let old = !cur_op in
    cur_op := id;
    Fun.protect ~finally:(fun () -> cur_op := old) f
  end

(** Run [f] inside a span; [name_of] may rename the span from [f]'s
    result (a request's layer is known only once it is answered). *)
let span_by name_of name f =
  if not !on then f ()
  else begin
    let s =
      {
        id = !count;
        name;
        op = !cur_op;
        parent = (match !stack with p :: _ -> p | [] -> -1);
        t0 = Util.now () *. 1e6;
        t1 = 0.;
        w0 = Gc.minor_words ();
        w1 = 0.;
      }
    in
    incr count;
    spans := s :: !spans;
    stack := s.id :: !stack;
    let close () =
      s.w1 <- Gc.minor_words ();
      s.t1 <- Util.now () *. 1e6;
      stack := List.tl !stack
    in
    match f () with
    | r ->
      close ();
      s.name <- name_of r;
      r
    | exception e ->
      close ();
      raise e
  end

let span name f = span_by (fun _ -> name) name f

(** Self time (ms) and self allocation (words) per span name. *)
let self_times () : (string, float * float) Hashtbl.t =
  let all = Array.of_list (List.rev !spans) in
  let n = Array.length all in
  let child_us = Array.make n 0. and child_w = Array.make n 0. in
  Array.iter
    (fun s ->
      if s.parent >= 0 then begin
        child_us.(s.parent) <- child_us.(s.parent) +. (s.t1 -. s.t0);
        child_w.(s.parent) <- child_w.(s.parent) +. (s.w1 -. s.w0)
      end)
    all;
  let tbl = Hashtbl.create 32 in
  Array.iter
    (fun s ->
      let ms = (s.t1 -. s.t0 -. child_us.(s.id)) /. 1000. in
      let w = s.w1 -. s.w0 -. child_w.(s.id) in
      let ms0, w0 = Option.value ~default:(0., 0.) (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (ms0 +. ms, w0 +. w))
    all;
  tbl

(** Write the spans as Chrome trace-event JSON and read the file back
    with the program's own parser ([Ir.Trace.Json]); returns the number
    of events parsed. *)
let write_chrome path =
  let all = List.rev !spans in
  let base = match all with s :: _ -> s.t0 | [] -> 0. in
  let esc = Ir.Trace.json_escape in
  let event s =
    Printf.sprintf
      "{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":\"%d\",\"parent\":\"%d\",\"op\":\"%s\",\"minor_words\":\"%.0f\"}}"
      (esc s.name) (s.t0 -. base) (s.t1 -. s.t0) s.id s.parent (esc s.op)
      (s.w1 -. s.w0)
  in
  let text =
    "{\"traceEvents\":[\n" ^ String.concat ",\n" (List.map event all) ^ "\n]}\n"
  in
  Out_channel.with_open_text path (fun oc -> output_string oc text);
  let parsed = Ir.Trace.Json.parse (In_channel.with_open_text path In_channel.input_all) in
  match parsed with
  | Ir.Trace.Json.Obj fields -> (
    match List.assoc_opt "traceEvents" fields with
    | Some (Ir.Trace.Json.Arr evs) -> List.length evs
    | _ -> failwith (path ^ ": no traceEvents array"))
  | _ -> failwith (path ^ ": not a JSON object")

(* ------------------------------------------------------------------ *)
(* The traced round and the per-layer metric set                       *)
(* ------------------------------------------------------------------ *)

type traced = {
  wall_s : float;  (** traced round wall *)
  self : (string, float * float) Hashtbl.t;
  counter : string -> float;  (** program [Ir.Trace] counter delta *)
  minor_gcs : int;
  major_gcs : int;
}

(** Run [f] with the benchmark's spans and the program's [Ir.Trace]
    counters on.  [Ir.Trace.enable] resets the counters, so their values
    afterwards are the round's deltas. *)
let traced_round f =
  reset ();
  let g0 = Gc.quick_stat () in
  Ir.Trace.enable ();
  on := true;
  let r, wall_s = Fun.protect ~finally:(fun () -> on := false; Ir.Trace.disable ()) (fun () -> Util.timed f) in
  let g1 = Gc.quick_stat () in
  ( r,
    {
      wall_s;
      self = self_times ();
      counter = (fun name -> Int64.to_float (Ir.Trace.counter name));
      minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

let tools = [ "licm"; "dead"; "vec"; "doall"; "helix"; "dswp" ]

(** Spans the benchmark opens, by layer: the metric for a span's self time
    is [<name>_ms] ([<name>.ms] for one-word names). *)
let timed_spans =
  [ "psim.exec"; "psim.run"; "interp"; "pipeline.gate"; "pipeline.invalidate" ]
  @ List.map (fun t -> "tools." ^ t) tools
  @ [ "minic.lower"; "andersen"; "pdg"; "bounds"; "loops"; "check";
      "serve.hit"; "serve.computed"; "serve.edit"; "serve.open" ]

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let layers =
  List.sort_uniq compare (List.map layer_of timed_spans)

let ms_metric name = if String.contains name '.' then name ^ "_ms" else name ^ ".ms"

(** Every per-layer metric, in the order BENCHMARK.json lists them.  Each
    workload reports all of them; a layer it does not exercise reads 0.
    [extra] supplies the workload's own counts (tool outcomes, check
    diagnostics, failed ops). *)
let per_layer (t : traced) ~traced_wall_s ~untraced_wall_s ~(extra : string -> float) =
  let self name = Option.value ~default:(0., 0.) (Hashtbl.find_opt t.self name) in
  let ms name = fst (self name) in
  let words_of layer =
    Hashtbl.fold
      (fun name (_, w) acc -> if layer_of name = layer then acc +. w else acc)
      t.self 0.
  in
  let c = t.counter in
  let steps = c "interp.steps" in
  let interp_ms, interp_words = self "interp" in
  let timings = List.map (fun n -> (ms_metric n, ms n, "ms")) timed_spans in
  let allocs =
    List.map (fun l -> (l ^ ".alloc_mwords", words_of l /. 1e6, "Mwords")) layers
  in
  let tool_counts =
    List.concat_map
      (fun tool ->
        [ ("tools." ^ tool ^ ".applied", extra ("tools." ^ tool ^ ".applied"), "count");
          ("tools." ^ tool ^ ".declined", extra ("tools." ^ tool ^ ".declined"), "count") ])
      tools
  in
  timings @ allocs @ tool_counts
  @ [
      ("interp.steps", steps, "count");
      ("interp.msteps_per_s", Util.ratio (steps /. 1e6) (interp_ms /. 1000.), "Msteps/s");
      ("interp.words_per_step", Util.ratio interp_words steps, "words");
      ("psim.task.cycles", c "psim.task.cycles", "cycles");
      ("pipeline.committed", c "pipeline.committed", "count");
      ("pipeline.rolled_back", c "pipeline.rolled_back", "count");
      ("pipeline.timed_out", c "pipeline.timed_out", "count");
      ("andersen.constraints", c "andersen.constraints", "count");
      ("pdg.alias_queries", c "pdg.alias_queries", "count");
      ("pdg.skipped_pct", Util.pct (c "pdg.pairs_skipped_bucketing") (c "pdg.mem_pairs"), "%");
      ("bounds.exact_pct", Util.pct (c "bounds.loops_exact") (c "bounds.loops"), "%");
      ("check.diagnostics", extra "check.diagnostics", "count");
      ("serve.store_hit_pct", Util.pct (c "serve.store.hits") (c "serve.queries"), "%");
      ( "noelle.invalidate_kept_pct",
        Util.pct (c "noelle.invalidate.kept")
          (c "noelle.invalidate.kept" +. c "noelle.invalidate.dropped"),
        "%" );
      ("gc.minor_collections", float_of_int t.minor_gcs, "count");
      ("gc.major_collections", float_of_int t.major_gcs, "count");
      ("trace.overhead_pct", Util.pct (traced_wall_s -. untraced_wall_s) untraced_wall_s, "%");
      ("failed_pct", extra "failed_pct", "%");
    ]

(** Each layer's share of the traced round's wall, for the docs. *)
let print_shares (t : traced) =
  let rows =
    Hashtbl.fold (fun name (ms, _) acc -> (name, ms) :: acc) t.self []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  List.iter
    (fun (name, ms) ->
      Printf.eprintf "perfbench: share %-22s %9.1f ms %5.1f%%\n" name ms
        (Util.pct (ms /. 1000.) t.wall_s))
    rows

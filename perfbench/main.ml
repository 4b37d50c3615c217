(** The repository benchmark: one workload, one seed, one result line.

    {v
    main.exe --workload NAME --seed N --seconds S --trace 0|1
    v}

    With [--trace 0] the run measures for [--seconds] seconds and prints
    the end-to-end metrics; with [--trace 1] it runs one untraced and one
    traced round and prints the per-layer metrics, writing the spans to
    [_perfbench/trace-NAME.json].  Outputs are checked by each workload's
    oracle outside the timed region; the last stdout line is the JSON
    result.  See README.md. *)

let workloads =
  [
    ( "corpus-pipeline",
      (Corpus.run, fun ~tiny ~seed -> String.concat " " (Corpus.draw ~tiny ~seed)) );
    ("fuzz-analyze", (Fuzz.run, Fuzz.describe));
    ("serve-edit-query", (Serving.run, Serving.describe));
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30. and trace = ref 0 in
  let tiny = ref false and inject = ref false and list_draw = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload,
       "NAME  " ^ String.concat ", " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  measurement window (default 30)");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run");
      ("--tiny", Arg.Set tiny, " self-test size");
      ("--inject-fault", Arg.Set inject, " corrupt outputs before the oracle (self-test)");
      ("--list-draw", Arg.Set list_draw, " print the seed's inputs and stop");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run, describe =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "perfbench: unknown workload %S\n" !workload;
      exit 2
  in
  if !list_draw then print_endline (describe ~tiny:!tiny ~seed:!seed)
  else begin
    Opts.mkdir_p Opts.work_dir;
    let opts =
      {
        Opts.seed = !seed;
        seconds = !seconds;
        trace = !trace = 1;
        tiny = !tiny;
        inject = !inject;
      }
    in
    let attempted, failed, metrics = run opts in
    if opts.Opts.trace then begin
      let path = Filename.concat Opts.work_dir ("trace-" ^ !workload ^ ".json") in
      Printf.eprintf "perfbench: %d spans written to %s\n" (Tracer.write_chrome path) path
    end;
    Util.print_result ~attempted ~failed metrics
  end

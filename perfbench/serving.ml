(** Workload [serve-edit-query]: one closed-loop client calls
    [Serve.handle] one request at a time, replaying a seeded
    [Serve.Workload] stream (edits mixed with deps, bounds and loops
    queries) over the serve kernel pool.  Each round serves the stream
    against a cold store, restarts ([Serve.create] on the same root, with
    a pristine corpus) and serves it again, so store writes sit beside
    store reads and edits invalidate fingerprint-keyed reuse.

    An operation is one request. *)

open Util

let modules = Serve.Workload.default_pool
let requests ~tiny = if tiny then 40 else 1500

let corpus () =
  List.map
    (fun name ->
      match Bsuite.Kernels.find name with
      | Some k -> (name, Tracer.span "minic.lower" (fun () -> Bsuite.Kernels.compile k))
      | None -> failwith ("unknown kernel " ^ name))
    modules

let stream ~tiny ~seed = Serve.Workload.generate ~seed ~mods:modules ~requests:(requests ~tiny)

let describe ~tiny ~seed =
  let w = stream ~tiny ~seed in
  Printf.sprintf "%d requests, digest %s, first: %s" (List.length w.Serve.Workload.reqs)
    (Digest.to_hex
       (Digest.string (String.concat "\n" (List.map Serve.Workload.req_to_string w.Serve.Workload.reqs))))
    (Serve.Workload.req_to_string (List.hd w.Serve.Workload.reqs))

(** IR instructions of the function each request names, in the pristine
    corpus. *)
let target_insts (w : Serve.Workload.t) =
  let c = corpus () in
  List.map
    (fun req ->
      let mname, fn =
        match req with
        | Serve.Workload.Edit { emod; efn; _ } -> (emod, efn)
        | Serve.Workload.Query { qmod; qfn; _ } -> (qmod, qfn)
      in
      float_of_int (Ir.Func.num_insts (Serve.nth_fn (List.assoc mname c) fn)))
    w.Serve.Workload.reqs
  |> sum

(** The oracle's reference: the stream replayed once from scratch on a
    fresh corpus and a fresh store, without a restart. *)
let cold_digests ~root (w : Serve.Workload.t) =
  Serve.Store.remove_tree root;
  let sv = Serve.create ~root (corpus ()) in
  let ds =
    List.mapi
      (fun i req ->
        match Serve.handle sv i req with
        | a -> a.Serve.atext
        | exception e -> "raised " ^ Printexc.to_string e)
      w.Serve.Workload.reqs
  in
  Serve.Store.close sv.Serve.store;
  Array.of_list ds

type answer = (Serve.answer, string) result

(** One round: cold store, restart, warm store.  Returns the request
    latencies (s, cold phase first, in stream order), the answers with
    their request index, and the wall. *)
let round_ ~root (w : Serve.Workload.t) (c1, c2) =
  let lat = ref [] and answers : (int * answer) list ref = ref [] in
  let phase sv tag =
    List.iteri
      (fun i req ->
        let a, secs =
          timed (fun () ->
              Tracer.with_op (Printf.sprintf "req-%s-%d" tag i) (fun () ->
                  Tracer.span_by
                    (function Ok a -> "serve." ^ a.Serve.asource | Error _ -> "serve.raised")
                    "serve.request"
                    (fun () -> try Ok (Serve.handle sv i req) with e -> Error (Printexc.to_string e))))
        in
        lat := secs :: !lat;
        answers := (i, a) :: !answers)
      w.Serve.Workload.reqs
  in
  let (), wall =
    timed (fun () ->
        let sv = Tracer.span "serve.open" (fun () -> Serve.create ~root c1) in
        phase sv "cold";
        Serve.Store.close sv.Serve.store;
        let sv = Tracer.span "serve.open" (fun () -> Serve.create ~root c2) in
        phase sv "warm";
        Serve.Store.close sv.Serve.store)
  in
  (List.rev !lat, !answers, wall)

(** A request fails if it raised, if its answer is degraded, or if its
    digest differs from the cold replay's. *)
let check ~inject cold (i, (a : answer)) =
  match a with
  | Error exn ->
    fail "serve-edit-query request %d: raised %s" i exn;
    false
  | Ok a ->
    let text = if inject then a.Serve.atext ^ " injected" else a.Serve.atext in
    if a.Serve.adegraded then begin
      fail "serve-edit-query request %d (%s): degraded answer" i a.Serve.areq;
      false
    end
    else if text <> cold.(i) then begin
      fail "serve-edit-query request %d (%s): digest %s, cold replay %s" i a.Serve.areq text
        cold.(i);
      false
    end
    else true

let run (o : Opts.t) =
  let w = stream ~tiny:o.tiny ~seed:o.seed in
  prerr_endline ("perfbench: draw " ^ describe ~tiny:o.tiny ~seed:o.seed);
  let dir = Filename.concat Opts.work_dir "serve" in
  Opts.mkdir_p dir;
  let cold = cold_digests ~root:(Filename.concat dir "cold") w in
  let insts = target_insts w in
  let root = Filename.concat dir "live" in
  let setups = ref [] in
  (* set-up: two pristine corpora (before and after the restart) and an
     empty store root *)
  let setup () =
    timed (fun () ->
        Serve.Store.remove_tree root;
        let c1 = corpus () in
        (c1, corpus ()))
  in
  let lats = ref [] and walls = ref [] and oks = ref 0 and failed = ref 0 in
  let hits = ref 0 and queries = ref 0 in
  let serve_round () =
    let ((lat, answers, wall), setup_s), k =
      normalised ~on:(not o.trace) (fun () ->
          let c, setup_s = setup () in
          (round_ ~root w c, setup_s))
    in
    setups := (setup_s *. k) :: !setups;
    let lat = List.map (fun s -> s *. k) lat and wall = wall *. k in
    List.iter
      (fun ((_, a) as ia) ->
        (match a with
        | Ok a when a.Serve.asource <> "edit" ->
          incr queries;
          if a.Serve.asource = "hit" then incr hits
        | _ -> ());
        if check ~inject:o.inject cold ia then incr oks else incr failed)
      answers;
    lats := lat :: !lats;
    walls := wall :: !walls;
    wall
  in
  let traced =
    if o.trace then begin
      let untraced = serve_round () in
      let traced, t = Tracer.traced_round serve_round in
      Some (t, untraced, traced)
    end
    else begin
      let t_start = now () and last = ref 0. in
      while !walls = [] || now () -. t_start +. !last <= o.seconds do
        let t0 = now () in
        ignore (serve_round ());
        last := now () -. t0
      done;
      None
    end
  in
  let attempted = !oks + !failed in
  (* every round replays the same requests: each request's best latency,
     and the best round's wall (store opens included) *)
  let best =
    match !lats with
    | [] -> []
    | l :: ls -> List.map (fun s -> s *. 1000.) (List.fold_left (List.map2 Float.min) l ls)
  in
  let best_wall = List.fold_left Float.min infinity !walls in
  Printf.eprintf "perfbench: %d requests x %d rounds, best p50 %.3f ms, p99 %.3f ms\n"
    (List.length best) (List.length !walls) (median best) (percentile 99. best);
  match traced with
  | Some (t, untraced_wall_s, traced_wall_s) ->
    let extra = function
      | "failed_pct" -> pct (float_of_int !failed) (float_of_int attempted)
      | _ -> 0.
    in
    Tracer.print_shares t;
    (attempted, !failed, Tracer.per_layer t ~traced_wall_s ~untraced_wall_s ~extra)
  | None ->
    ( attempted,
      !failed,
      [
        ("setup_s", median !setups, "s");
        ("peak_rss_mb", peak_rss_mb (), "MB");
        ("p50_ms", median best, "ms");
        ("tail_ms", percentile 99. best, "ms");
        ("ops_per_s", ratio (float_of_int (List.length best)) best_wall, "1/s");
        ("insts_per_s", ratio (2. *. insts) best_wall, "1/s");
        ("quality", ratio (float_of_int !hits) (float_of_int !queries), "ratio");
      ] )

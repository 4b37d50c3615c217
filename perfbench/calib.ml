(** Machine-speed probe.  Three fixed kernels that stress what the
    benchmarked program stresses: allocation with small hash tables,
    random pointer chasing over a 16 MB array, and updates of a large
    hash table.  Each is timed three times in this fresh process; the
    geometric mean of their best times is printed in seconds.  The probe
    links none of the program's libraries, so a change to the program
    cannot change what it measures; only the machine can (other tenants
    on shared cores and caches, frequency). *)

let small () =
  let h = Hashtbl.create 16 in
  let acc = ref 0 in
  for i = 0 to 40_000 do
    Hashtbl.replace h (i land 4095) (List.init 8 (fun j -> i + j));
    acc := !acc + List.length (Option.value ~default:[] (Hashtbl.find_opt h (i * 7 land 4095)))
  done;
  !acc

let chase =
  let n = 1 lsl 21 in
  let perm = Array.init n Fun.id in
  let s = ref 12345 in
  for i = n - 1 downto 1 do
    s := (!s * 1103515245 + 12345) land 0x3fffffff;
    let j = !s mod (i + 1) in
    let x = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- x
  done;
  fun () ->
    let p = ref 0 in
    for _ = 1 to 100_000 do p := perm.(!p) done;
    !p

let big =
  let size = 1 lsl 17 in
  let tbl = Hashtbl.create size in
  for i = 0 to size - 1 do Hashtbl.replace tbl i [ i ] done;
  fun () ->
    let acc = ref 0 in
    for i = 0 to 40_000 do
      let k = i * 2654435761 land (size - 1) in
      Hashtbl.replace tbl k (i :: List.init 3 Fun.id);
      acc := !acc + List.length (Hashtbl.find tbl (k * 7 land (size - 1)))
    done;
    !acc

let best f =
  let b = ref infinity in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    b := Float.min !b (Unix.gettimeofday () -. t0)
  done;
  !b

let () = Printf.printf "%.9f\n" (Float.cbrt (best small *. best chase *. best big))

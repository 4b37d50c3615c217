(** Command-line options shared by every workload. *)

type t = {
  seed : int;
  seconds : float;  (** measurement window *)
  trace : bool;  (** the traced run: per-layer metrics instead of end-to-end *)
  tiny : bool;  (** self-test size: smallest inputs, one round *)
  inject : bool;  (** self-test: corrupt outputs before the oracle sees them *)
}

(** Scratch space inside the checkout (store roots, trace files). *)
let work_dir = "_perfbench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

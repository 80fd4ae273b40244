type signature = (int * int, float) Hashtbl.t

let of_counts counts =
  let t = Hashtbl.create 64 in
  List.iter
    (fun (pair, n) ->
      let cur = Option.value ~default:0. (Hashtbl.find_opt t pair) in
      Hashtbl.replace t pair (cur +. float_of_int n))
    counts;
  t

let of_icc icc =
  (* Two messages per call in the summaries. The signature is an
     order-insensitive accumulation, so fold the ICC cells directly
     instead of materializing the sorted entry list. *)
  let t = Hashtbl.create 64 in
  Icc.fold_messages
    (fun ~src ~dst ~count () ->
      let pair = (src, dst) in
      let cur = Option.value ~default:0. (Hashtbl.find_opt t pair) in
      Hashtbl.replace t pair (cur +. float_of_int (count / 2)))
    icc ();
  t

let create () = Hashtbl.create 64

let add t pair w =
  if w > 0. then
    match Hashtbl.find t pair with
    | cur -> Hashtbl.replace t pair (cur +. w)
    | exception Not_found -> Hashtbl.replace t pair (0. +. w)

let of_weights weights =
  let t = create () in
  List.iter (fun (pair, w) -> add t pair w) weights;
  t

let entries t =
  List.sort compare (Hashtbl.fold (fun pair w acc -> (pair, w) :: acc) t [])

(* Sums run in each table's iteration order; the accumulators are one
   flat float array, so a sum step boxes nothing. *)
let similarity a b =
  let acc = Array.make 3 0. in
  (* 0: dot, 1: |a|^2, 2: |b|^2 *)
  Hashtbl.iter
    (fun pair va ->
      acc.(1) <- acc.(1) +. (va *. va);
      match Hashtbl.find b pair with
      | vb -> acc.(0) <- acc.(0) +. (va *. vb)
      | exception Not_found -> ())
    a;
  Hashtbl.iter (fun _ vb -> acc.(2) <- acc.(2) +. (vb *. vb)) b;
  let dot = acc.(0) and na = acc.(1) and nb = acc.(2) in
  if na = 0. && nb = 0. then 1.
  else if na = 0. || nb = 0. then 0.
  else dot /. (sqrt na *. sqrt nb)

let drifted ?(threshold = 0.90) ~profile observed =
  similarity profile observed < threshold

let pair_count = Hashtbl.length

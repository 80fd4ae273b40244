let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.
  else
    let m = mean xs in
    Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs /. float_of_int n

let stddev xs = sqrt (variance xs)

let check_p fn p =
  if Float.is_nan p || p < 0. || p > 100. then
    invalid_arg (Printf.sprintf "Stats.%s: p must be in [0, 100], got %g" fn p)

(* The one interpolation rule: [p]'s fractional rank over [n]
   order statistics, read from any array whose floor and ceiling rank
   slots already hold their order statistics (a sorted copy, or one
   that went through [select_rank]). *)
let rank_of n p = p /. 100. *. float_of_int (n - 1)

let interpolate ordered p =
  let rank = rank_of (Array.length ordered) p in
  let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
  let frac = rank -. floor rank in
  (ordered.(lo) *. (1. -. frac)) +. (ordered.(hi) *. frac)

let percentile xs p =
  if Array.length xs = 0 then invalid_arg "Stats.percentile: empty";
  check_p "percentile" p;
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  interpolate sorted p

let sort_range a lo hi =
  let sub = Array.sub a lo (hi - lo + 1) in
  Array.sort Float.compare sub;
  Array.blit sub 0 a lo (hi - lo + 1)

let swap (a : float array) i j =
  let t = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- t

(* Put order statistic [k] of [a.(lo..hi)] at index [k], with every
   slot below it [<=] and every slot above it [>=] (in [Float.compare]
   order). Three-way quickselect on a median-of-three pivot, so runs of
   equal values end a round instead of splitting it. A round is
   unproductive when it keeps more than three quarters of the range;
   after [budget] of those the remaining range is sorted, which caps
   the worst case at O(n log n). Returns the highest index known to
   hold its order statistic: the top of the final equal band, the top
   of the sorted range, or [k]. *)
let select_rank a ~budget lo hi k =
  let lo = ref lo and hi = ref hi and budget = ref budget and placed = ref (-1) in
  while !placed < 0 do
    let l = !lo and h = !hi in
    if h <= l then placed := k
    else if !budget <= 0 then begin
      sort_range a l h;
      placed := h
    end
    else begin
      let m = l + ((h - l) / 2) in
      let x = a.(l) and y = a.(m) and z = a.(h) in
      let pivot =
        if Float.compare x y <= 0 then
          if Float.compare y z <= 0 then y else if Float.compare x z <= 0 then z else x
        else if Float.compare x z <= 0 then x
        else if Float.compare y z <= 0 then z
        else y
      in
      (* Dutch-flag partition: [l, lt) < pivot, [lt, i) = pivot,
         (gt, h] > pivot. *)
      let lt = ref l and i = ref l and gt = ref h in
      while !i <= !gt do
        let c = Float.compare a.(!i) pivot in
        if c < 0 then begin
          swap a !lt !i;
          incr lt;
          incr i
        end
        else if c > 0 then begin
          swap a !i !gt;
          decr gt
        end
        else incr i
      done;
      let kept =
        if k < !lt then begin
          hi := !lt - 1;
          !lt - l
        end
        else if k > !gt then begin
          lo := !gt + 1;
          h - !gt
        end
        else begin
          placed := !gt;
          0
        end
      in
      if 4 * kept > 3 * (h - l + 1) then decr budget
    end
  done;
  !placed

let select_percentiles xs ps =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.select_percentiles: empty";
  Array.iteri
    (fun i p ->
      check_p "select_percentiles" p;
      if i > 0 && p < ps.(i - 1) then
        invalid_arg "Stats.select_percentiles: percentiles must be ascending")
    ps;
  let log2n = ref 0 in
  while 1 lsl !log2n < n do
    incr log2n
  done;
  (* Ranks ascend, so each selection only searches above the slots
     already placed: everything below them is no larger. *)
  let placed = ref (-1) in
  let place k =
    if k > !placed then placed := select_rank xs ~budget:(2 * !log2n) (!placed + 1) (n - 1) k
  in
  Array.map
    (fun p ->
      let rank = rank_of n p in
      place (int_of_float (floor rank));
      place (int_of_float (ceil rank));
      interpolate xs p)
    ps

let dot a b =
  if Array.length a <> Array.length b then invalid_arg "Stats.dot: length mismatch";
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let norm a = sqrt (dot a a)

let cosine_correlation a b =
  let na = norm a and nb = norm b in
  if na = 0. && nb = 0. then 1.
  else if na = 0. || nb = 0. then 0.
  else dot a b /. (na *. nb)

let linear_fit points =
  let n = Array.length points in
  if n < 2 then invalid_arg "Stats.linear_fit: need at least two points";
  let sx = ref 0. and sy = ref 0. and sxx = ref 0. and sxy = ref 0. in
  Array.iter
    (fun (x, y) ->
      sx := !sx +. x;
      sy := !sy +. y;
      sxx := !sxx +. (x *. x);
      sxy := !sxy +. (x *. y))
    points;
  let nf = float_of_int n in
  let denom = (nf *. !sxx) -. (!sx *. !sx) in
  if denom = 0. then invalid_arg "Stats.linear_fit: degenerate x values";
  let slope = ((nf *. !sxy) -. (!sx *. !sy)) /. denom in
  let intercept = (!sy -. (slope *. !sx)) /. nf in
  (intercept, slope)

let ratio_error ~predicted ~measured =
  if measured = 0. then if predicted = 0. then 0. else infinity
  else (predicted -. measured) /. measured

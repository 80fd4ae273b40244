(** Small statistics toolkit used by the network profiler, the
    classifier-accuracy evaluation, and the benchmark reports. *)

val mean : float array -> float
(** Arithmetic mean; 0 on empty input. *)

val variance : float array -> float
(** Population variance; 0 on inputs shorter than 2. *)

val stddev : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]]; linear interpolation
    between order statistics. Sorts a copy, so [xs] is untouched.
    Raises [Invalid_argument] on empty input and on a [p] outside
    [\[0,100\]] or NaN. *)

val select_percentiles : float array -> float array -> float array
(** [select_percentiles xs ps] is [Array.map (percentile xs) ps]
    without sorting, bit for bit (save that [-0.] and [0.], equal in
    both orders, may trade places). Each percentile's floor and ceiling ranks
    are put in place in [xs] by an in-place three-way quickselect
    (median-of-three pivot, [Float.compare] order), each search
    starting above the ranks already placed. Expected O(n) for a fixed
    number of percentiles; a selection that keeps stalling sorts its
    remaining range, so the worst case is O(n log n). [xs] is permuted:
    afterwards every slot at a requested rank holds its order
    statistic (so for [p = 100], [xs.(n - 1)] is the maximum), while
    the rest of the order is unspecified. [ps] must be ascending;
    raises [Invalid_argument] on empty [xs], on descending [ps], and
    on any [p] outside [\[0,100\]] or NaN. *)

val dot : float array -> float array -> float
(** Dot product; arrays must have equal length. *)

val norm : float array -> float

val cosine_correlation : float array -> float array -> float
(** Normalized dot product in [\[0,1\]] for non-negative vectors; the
    paper's communication-vector correlation (§4.2). Two zero vectors
    correlate at 1 (identical behaviour); a zero vector against a
    non-zero vector correlates at 0. *)

val linear_fit : (float * float) array -> float * float
(** [linear_fit points] is [(intercept, slope)] of the least-squares
    line through [(x, y)] points — used to recover latency and 1/bandwidth
    from sampled message timings. Requires at least two distinct [x]. *)

val ratio_error : predicted:float -> measured:float -> float
(** Signed relative error [(predicted - measured) / measured]; 0 when
    both are 0. *)

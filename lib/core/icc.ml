open Coign_util

(* Cells are keyed by (src, dst, interface id) in a [Key_index]; an
   interface name is interned once per table, so recording a call under
   an interned interface hashes no string. Per-cell state lives in
   arrays indexed by the cell id. *)
type t = {
  index : Key_index.t;
  remotable_flags : Dense_map.t; (* per cell: 1 remotable (the default), 0 not *)
  mutable buckets : Exp_bucket.t array; (* per cell *)
  iface_ids : (string, int) Hashtbl.t;
  mutable iface_names : string array; (* interface id -> name *)
  mutable calls : int;
}

type iface = int

type entry = {
  src : int;
  dst : int;
  iface : string;
  remotable : bool;
  messages : Exp_bucket.t;
}

let create () =
  {
    index = Key_index.create 16;
    remotable_flags = Dense_map.create ~absent:1;
    buckets = Array.make 16 (Exp_bucket.create ());
    iface_ids = Hashtbl.create 16;
    iface_names = Array.make 16 "";
    calls = 0;
  }

let intern t name =
  match Hashtbl.find_opt t.iface_ids name with
  | Some id -> id
  | None ->
      let id = Hashtbl.length t.iface_ids in
      if id = Array.length t.iface_names then begin
        let names = Array.make (2 * id) "" in
        Array.blit t.iface_names 0 names 0 id;
        t.iface_names <- names
      end;
      t.iface_names.(id) <- name;
      Hashtbl.add t.iface_ids name id;
      id

let cell_count t = Key_index.length t.index
let cell_src t c = Key_index.key_a t.index c
let cell_dst t c = Key_index.key_b t.index c
let cell_iface t c = t.iface_names.(Key_index.key_c t.index c)
let cell_remotable t c = Dense_map.get t.remotable_flags c = 1
let mark_non_remotable t c = Dense_map.set t.remotable_flags c 0

(* The cell of (src, dst, iface), created remotable and empty. *)
let cell t ~src ~dst iface =
  let n = Key_index.length t.index in
  let c = Key_index.intern t.index src dst iface in
  if c = n then begin
    if c = Array.length t.buckets then begin
      let buckets = Array.make (2 * c) t.buckets.(0) in
      Array.blit t.buckets 0 buckets 0 c;
      t.buckets <- buckets
    end;
    t.buckets.(c) <- Exp_bucket.create ()
  end;
  c

let record_interned t ~src ~dst iface ~remotable ~request ~reply =
  let c = cell t ~src ~dst iface in
  if not remotable then mark_non_remotable t c;
  let b = t.buckets.(c) in
  Exp_bucket.add b ~bytes:request;
  Exp_bucket.add b ~bytes:reply;
  t.calls <- t.calls + 1

let record t ~src ~dst ~iface ~remotable ~request ~reply =
  record_interned t ~src ~dst (intern t iface) ~remotable ~request ~reply

(* Cell ids in key order: src, then dst, then interface name. Names are
   ranked once, so cells compare as int triples. *)
let sorted_cells t =
  let names = Array.init (Hashtbl.length t.iface_ids) Fun.id in
  Array.sort (fun a b -> String.compare t.iface_names.(a) t.iface_names.(b)) names;
  let rank = Array.make (Array.length names) 0 in
  Array.iteri (fun r id -> rank.(id) <- r) names;
  let n = cell_count t in
  let src = Array.init n (cell_src t) and dst = Array.init n (cell_dst t) in
  let iface = Array.init n (fun c -> rank.(Key_index.key_c t.index c)) in
  let cells = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      let c = Int.compare src.(a) src.(b) in
      if c <> 0 then c
      else
        let c = Int.compare dst.(a) dst.(b) in
        if c <> 0 then c else Int.compare iface.(a) iface.(b))
    cells;
  cells

let entry_of t c =
  {
    src = cell_src t c;
    dst = cell_dst t c;
    iface = cell_iface t c;
    remotable = cell_remotable t c;
    messages = t.buckets.(c);
  }

let entries t = Array.fold_right (fun c acc -> entry_of t c :: acc) (sorted_cells t) []

let pair_entries t =
  let pairs = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let key = (min e.src e.dst, max e.src e.dst) in
      let cur = Option.value ~default:[] (Hashtbl.find_opt pairs key) in
      Hashtbl.replace pairs key (e :: cur))
    (entries t);
  Hashtbl.fold (fun k es acc -> (k, List.rev es) :: acc) pairs []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let fold_messages f t init =
  let acc = ref init in
  for c = 0 to cell_count t - 1 do
    acc :=
      f ~src:(cell_src t c) ~dst:(cell_dst t c) ~count:(Exp_bucket.message_count t.buckets.(c))
        !acc
  done;
  !acc

let call_count t = t.calls

let total_bytes t =
  let total = ref 0 in
  for c = 0 to cell_count t - 1 do
    total := !total + Exp_bucket.total_bytes t.buckets.(c)
  done;
  !total

(* Fold every cell of [from] into [into], under [remap]ped
   classifications. *)
let absorb_mapped remap ~into from =
  for c = 0 to cell_count from - 1 do
    let d =
      cell into ~src:(remap (cell_src from c)) ~dst:(remap (cell_dst from c))
        (intern into (cell_iface from c))
    in
    if not (cell_remotable from c) then mark_non_remotable into d;
    Exp_bucket.add_into into.buckets.(d) from.buckets.(c)
  done

let absorb ~into from =
  absorb_mapped Fun.id ~into from;
  into.calls <- into.calls + from.calls

let merge a b =
  let r = create () in
  absorb ~into:r a;
  absorb ~into:r b;
  r

let map_classifications f t =
  let r = create () in
  absorb_mapped (fun x -> if x < 0 then x else f x) ~into:r t;
  r.calls <- t.calls;
  r

let is_empty t = cell_count t = 0

(* Text encoding: a "calls N" line, then one line per (cell, non-empty
   bucket) in key order:
   src TAB dst TAB iface TAB remotable(0|1) TAB bucket TAB count TAB bytes *)
let encode t =
  let buf = Buffer.create (64 * (cell_count t + 1)) in
  let int n = Decimal.add buf n in
  let tab () = Buffer.add_char buf '\t' in
  Buffer.add_string buf "calls ";
  int t.calls;
  Buffer.add_char buf '\n';
  Array.iter
    (fun c ->
      let src = cell_src t c and dst = cell_dst t c and iface = cell_iface t c in
      let remotable = if cell_remotable t c then '1' else '0' in
      ignore
        (Exp_bucket.fold
           (fun ~index ~count ~bytes () ->
             int src;
             tab ();
             int dst;
             tab ();
             Buffer.add_string buf iface;
             tab ();
             Buffer.add_char buf remotable;
             tab ();
             int index;
             tab ();
             int count;
             tab ();
             int bytes;
             Buffer.add_char buf '\n')
           t.buckets.(c) ()))
    (sorted_cells t);
  Buffer.contents buf

let malformed () = invalid_arg "Icc.decode: malformed line"

let parse_int s i j = match Decimal.parse s i j with n -> n | exception Failure _ -> malformed ()

let parse_nonneg s i j =
  let n = parse_int s i j in
  if n < 0 then malformed ();
  n

(* End of the tab-separated field starting at [i] on the line ending
   at [stop]: a tab unless the field is the line's [last]. *)
let field s i stop ~last =
  let rec scan k = if k >= stop || s.[k] = '\t' then k else scan (k + 1) in
  let e = scan i in
  if last <> (e = stop) then malformed ();
  e

let calls_prefix = "calls "

let rec prefix_at s i k =
  k = String.length calls_prefix || (s.[i + k] = calls_prefix.[k] && prefix_at s i (k + 1))

let decode_line t s i stop =
  if stop - i > String.length calls_prefix && prefix_at s i 0 then
    t.calls <- parse_nonneg s (i + String.length calls_prefix) stop
  else begin
    let e0 = field s i stop ~last:false in
    let e1 = field s (e0 + 1) stop ~last:false in
    let e2 = field s (e1 + 1) stop ~last:false in
    let e3 = field s (e2 + 1) stop ~last:false in
    let e4 = field s (e3 + 1) stop ~last:false in
    let e5 = field s (e4 + 1) stop ~last:false in
    let e6 = field s (e5 + 1) stop ~last:true in
    let src = parse_int s i e0 and dst = parse_int s (e0 + 1) e1 in
    let iface = intern t (String.sub s (e1 + 1) (e2 - e1 - 1)) in
    let remotable =
      match s.[e2 + 1] with
      | '1' when e3 = e2 + 2 -> true
      | '0' when e3 = e2 + 2 -> false
      | _ -> malformed ()
    in
    let index = parse_nonneg s (e3 + 1) e4 in
    let count = parse_nonneg s (e4 + 1) e5 in
    let bytes = parse_nonneg s (e5 + 1) e6 in
    if index >= Exp_bucket.bucket_count then malformed ();
    let c = cell t ~src ~dst iface in
    if not remotable then mark_non_remotable t c;
    (* Reconstruct the bucket contents: distribute the total bytes over
       [count] messages without leaving the bucket — floor-mean
       messages plus enough (mean+1)-byte messages to absorb the
       remainder — preserving count and totals. *)
    if count > 0 then begin
      let lo, _hi = Exp_bucket.bucket_bounds index in
      let mean = Int.max lo (bytes / count) in
      let remainder = Int.max 0 (bytes - (mean * count)) in
      let b = t.buckets.(c) in
      Exp_bucket.add_many b ~bytes:mean ~count:(count - remainder);
      Exp_bucket.add_many b ~bytes:(mean + 1) ~count:remainder
    end
  end

let decode s =
  let t = create () in
  let len = String.length s in
  let rec lines i =
    if i < len then begin
      let rec line_end k = if k >= len || s.[k] = '\n' then k else line_end (k + 1) in
      let stop = line_end i in
      if stop > i then decode_line t s i stop;
      lines (stop + 1)
    end
  in
  lines 0;
  t

open Coign_util

type kind = Incremental | Pcb | St | Stcb | Ifcb | Epcb | Ib

let all_kinds = [ Incremental; Pcb; St; Stcb; Ifcb; Epcb; Ib ]

let kind_name = function
  | Incremental -> "incremental"
  | Pcb -> "pcb"
  | St -> "st"
  | Stcb -> "stcb"
  | Ifcb -> "ifcb"
  | Epcb -> "epcb"
  | Ib -> "ib"

let kind_of_name = function
  | "incremental" -> Some Incremental
  | "pcb" -> Some Pcb
  | "st" -> Some St
  | "stcb" -> Some Stcb
  | "ifcb" -> Some Ifcb
  | "epcb" -> Some Epcb
  | "ib" -> Some Ib
  | _ -> None

let kind_description = function
  | Incremental -> "Incremental"
  | Pcb -> "Procedure Called-By"
  | St -> "Static-Type"
  | Stcb -> "Static-Type Called-By"
  | Ifcb -> "Internal-Func. Called-By"
  | Epcb -> "Entry-Point Called-By"
  | Ib -> "Instantiated-By"

type t = {
  ckind : kind;
  depth : int option;
  table : (string, int) Hashtbl.t;        (* descriptor -> classification *)
  mutable descriptors : string array;     (* classification -> descriptor *)
  mutable classes : string array;         (* classification -> component class *)
  mutable counts : int array;             (* instances per classification *)
  mutable nclassifications : int;
  mutable order : int;                    (* instantiation ordinal *)
  mutable counting : bool;
}

let create ?stack_depth ckind =
  (match stack_depth with
  | Some d when d < 1 -> invalid_arg "Classifier.create: depth must be >= 1"
  | _ -> ());
  {
    ckind;
    depth = stack_depth;
    table = Hashtbl.create 256;
    descriptors = Array.make 64 "";
    classes = Array.make 64 "";
    counts = Array.make 64 0;
    nclassifications = 0;
    order = 0;
    counting = true;
  }

let kind t = t.ckind
let stack_depth t = t.depth

(* Descriptors are built in a per-domain scratch buffer, so forming one
   allocates only the resulting string. *)
let scratch = Domain.DLS.new_key (fun () -> Buffer.create 256)

(* What a call-chain descriptor says about each frame. *)
type part =
  | Class_method  (* PCB: class::method *)
  | Class  (* STCB: the instance's class *)
  | Call_site  (* IFCB, EPCB: [c<classification>,method] *)

let add_part buf part f =
  match part with
  | Class_method ->
      Buffer.add_string buf f.Frame.f_class;
      Buffer.add_string buf "::";
      Buffer.add_string buf f.Frame.f_meth
  | Class -> Buffer.add_string buf f.Frame.f_class
  | Call_site ->
      Buffer.add_string buf "[c";
      Decimal.add buf f.Frame.f_classification;
      Buffer.add_char buf ',';
      Buffer.add_string buf f.Frame.f_meth;
      Buffer.add_char buf ']'

(* ", part" for each of the first [k] frames ([k < 0]: all of them),
   most-recent-first. [entry_only] keeps, of each run of consecutive
   frames of one instance, only the deepest — the method by which
   control *entered* the instance (paper Figure 3); the depth limit
   applies before runs collapse. *)
let rec add_frames buf part ~entry_only k = function
  | [] -> ()
  | _ when k = 0 -> ()
  | f :: rest ->
      let last_of_run =
        k = 1 || match rest with [] -> true | g :: _ -> g.Frame.f_inst <> f.Frame.f_inst
      in
      if (not entry_only) || last_of_run then begin
        Buffer.add_string buf ", ";
        add_part buf part f
      end;
      add_frames buf part ~entry_only (k - 1) rest

(* The instantiated class, then its call chain. *)
let add_chain buf t ~cname ~stack part ~entry_only =
  Buffer.add_string buf cname;
  add_frames buf part ~entry_only (match t.depth with None -> -1 | Some d -> d) stack

let descriptor t ~cname ~stack =
  let buf = Domain.DLS.get scratch in
  Buffer.clear buf;
  Buffer.add_char buf '[';
  let frames = add_chain buf t ~cname ~stack in
  (match t.ckind with
  | Incremental -> Decimal.add buf t.order
  | St -> Buffer.add_string buf cname
  | Pcb -> frames Class_method ~entry_only:false
  | Stcb ->
      (* Classes of the *instances* in the back-trace: an instance that
         occupies several consecutive frames contributes its class once
         (paper Figure 3 lists instance a's class A a single time). *)
      frames Class ~entry_only:true
  | Ifcb -> frames Call_site ~entry_only:false
  | Epcb -> frames Call_site ~entry_only:true
  | Ib -> (
      Buffer.add_string buf cname;
      match stack with
      | [] -> Buffer.add_string buf ", root"
      | f :: _ ->
          Buffer.add_string buf ", c";
          Decimal.add buf f.Frame.f_classification));
  Buffer.add_char buf ']';
  Buffer.contents buf

let grow t =
  if t.nclassifications = Array.length t.descriptors then begin
    let n = Array.length t.descriptors in
    let descriptors = Array.make (2 * n) "" in
    let classes = Array.make (2 * n) "" in
    let counts = Array.make (2 * n) 0 in
    Array.blit t.descriptors 0 descriptors 0 n;
    Array.blit t.classes 0 classes 0 n;
    Array.blit t.counts 0 counts 0 n;
    t.descriptors <- descriptors;
    t.classes <- classes;
    t.counts <- counts
  end

(* One instantiation against a known classification. *)
let count t id =
  t.order <- t.order + 1;
  if t.counting then t.counts.(id) <- t.counts.(id) + 1

let classify t ~cname ~stack =
  let desc = descriptor t ~cname ~stack in
  let id =
    match Hashtbl.find t.table desc with
    | id -> id
    | exception Not_found ->
        grow t;
        let id = t.nclassifications in
        Hashtbl.add t.table desc id;
        t.descriptors.(id) <- desc;
        t.classes.(id) <- cname;
        t.nclassifications <- id + 1;
        id
  in
  count t id;
  id

(* --- classifying a live shadow stack by int keys ------------------ *)

(* A trie over what the descriptor reads of each frame, interned in a
   [Key_index]: node = (parent, a, b). A node's classification is
   filled in on the first descriptor built for it. The key of a frame
   is at least as fine as its part of the descriptor, so equal keys
   mean equal descriptors:
   - [a] is the frame's classification, which fixes the instance's
     class (every descriptor starts with the class name); an
     unclassified frame uses its instance instead, [-2 - inst];
   - [b >= 0] is the call site (which fixes the method name) and
     whether the frame ends its run of one instance's frames within the
     walked depth, as [add_frames] decides it.
   Parents below -1 root the other key shapes, so no two shapes meet. *)
type memo = {
  mm_classifier : t;
  mm_names : (string, int) Hashtbl.t; (* class name -> id *)
  mm_trie : Key_index.t;
  mm_class : Dense_map.t; (* node -> classification, -1 unknown *)
}

let memo t =
  {
    mm_classifier = t;
    mm_names = Hashtbl.create 64;
    mm_trie = Key_index.create 16;
    mm_class = Dense_map.create ~absent:(-1);
  }

let name_id m cname =
  match Hashtbl.find m.mm_names cname with
  | n -> n
  | exception Not_found ->
      let n = Hashtbl.length m.mm_names in
      Hashtbl.add m.mm_names cname n;
      n

let frame_key_a (stack : Shadow_stack.t) j =
  let c = stack.classifications.(j) in
  if c >= 0 then c else -2 - stack.insts.(j)

let frame_key_b (stack : Shadow_stack.t) j ~last_of_run =
  (2 * stack.sites.(j)) + if last_of_run then 1 else 0

(* A call chain keys the top [k] frames top-down. *)
let rec chain_down m (stack : Shadow_stack.t) k j node =
  if k = 0 || j < 0 then node
  else
    let last_of_run = k = 1 || j = 0 || stack.insts.(j - 1) <> stack.insts.(j) in
    chain_down m stack (k - 1) (j - 1)
      (Key_index.intern m.mm_trie node (frame_key_a stack j) (frame_key_b stack j ~last_of_run))

let classify_stack m ~cname (stack : Shadow_stack.t) ~frame =
  let t = m.mm_classifier in
  let depth = stack.n in
  let node =
    match (t.ckind, t.depth) with
    | Incremental, _ -> -1 (* the descriptor carries the ordinal: never repeats *)
    | St, _ -> Key_index.intern m.mm_trie (-2) (name_id m cname) 0
    | Ib, _ ->
        if depth = 0 then Key_index.intern m.mm_trie (-3) (name_id m cname) 0
        else Key_index.intern m.mm_trie (-4) (name_id m cname) stack.classifications.(depth - 1)
    | (Pcb | Stcb | Ifcb | Epcb), d ->
        let k = match d with None -> depth | Some d -> d in
        chain_down m stack k (depth - 1) (Key_index.intern m.mm_trie (-5) (name_id m cname) 0)
  in
  let id = if node < 0 then -1 else Dense_map.get m.mm_class node in
  if id >= 0 then begin
    count t id;
    id
  end
  else begin
    let limit =
      match t.ckind with
      | Incremental | St -> 0
      | Ib -> 1
      | Pcb | Stcb | Ifcb | Epcb -> ( match t.depth with None -> depth | Some d -> d)
    in
    let id = classify t ~cname ~stack:(Shadow_stack.walk ~limit stack ~frame) in
    if node >= 0 then Dense_map.set m.mm_class node id;
    id
  end

let lookup t ~cname ~stack = Hashtbl.find_opt t.table (descriptor t ~cname ~stack)

let classification_count t = t.nclassifications

let instance_count t =
  let total = ref 0 in
  for i = 0 to t.nclassifications - 1 do
    total := !total + t.counts.(i)
  done;
  !total

let instances_of t id =
  if id < 0 || id >= t.nclassifications then invalid_arg "Classifier.instances_of";
  t.counts.(id)

let descriptor_of_classification t id =
  if id < 0 || id >= t.nclassifications then
    invalid_arg "Classifier.descriptor_of_classification";
  t.descriptors.(id)

let class_of_classification t id =
  if id < 0 || id >= t.nclassifications then invalid_arg "Classifier.class_of_classification";
  t.classes.(id)

let freeze_counts t = t.counting <- false

let copy t =
  let c = create ?stack_depth:t.depth t.ckind in
  Hashtbl.iter (fun k v -> Hashtbl.add c.table k v) t.table;
  c.descriptors <- Array.copy t.descriptors;
  c.classes <- Array.copy t.classes;
  c.counts <- Array.copy t.counts;
  c.nclassifications <- t.nclassifications;
  c.order <- t.order;
  c

let merge a b =
  if a.ckind <> b.ckind || a.depth <> b.depth then
    invalid_arg "Classifier.merge: classifier configurations differ";
  let m = copy a in
  let remap = Array.make b.nclassifications 0 in
  for bid = 0 to b.nclassifications - 1 do
    let desc = b.descriptors.(bid) in
    let id =
      match Hashtbl.find_opt m.table desc with
      | Some id -> id
      | None ->
          grow m;
          let id = m.nclassifications in
          Hashtbl.add m.table desc id;
          m.descriptors.(id) <- desc;
          m.classes.(id) <- b.classes.(bid);
          m.nclassifications <- id + 1;
          id
    in
    m.counts.(id) <- m.counts.(id) + b.counts.(bid);
    remap.(bid) <- id
  done;
  m.order <- max a.order b.order;
  (m, remap)

let encode t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (kind_name t.ckind);
  Buffer.add_char buf '\n';
  (match t.depth with None -> Buffer.add_string buf "full" | Some d -> Decimal.add buf d);
  Buffer.add_char buf '\n';
  Decimal.add buf t.order;
  Buffer.add_char buf '\n';
  for id = 0 to t.nclassifications - 1 do
    (* Descriptors never contain newlines or tabs; classes neither. *)
    Decimal.add buf t.counts.(id);
    Buffer.add_char buf '\t';
    Buffer.add_string buf t.classes.(id);
    Buffer.add_char buf '\t';
    Buffer.add_string buf t.descriptors.(id);
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let decode s =
  let int_field ~what x =
    match Decimal.parse x 0 (String.length x) with
    | n when n >= 0 -> n
    | _ | (exception Failure _) -> invalid_arg ("Classifier.decode: malformed " ^ what)
  in
  match String.split_on_char '\n' s with
  | kind_line :: depth_line :: order_line :: rest ->
      let ckind =
        match kind_of_name kind_line with
        | Some k -> k
        | None -> invalid_arg ("Classifier.decode: unknown kind " ^ kind_line)
      in
      let depth =
        if String.equal depth_line "full" then None
        else Some (int_field ~what:"header" depth_line)
      in
      let t = create ?stack_depth:depth ckind in
      t.order <- int_field ~what:"header" order_line;
      List.iter
        (fun line ->
          if not (String.equal line "") then
            match String.split_on_char '\t' line with
            | [ count; cls; desc ] ->
                let count = int_field ~what:"row" count in
                grow t;
                let id = t.nclassifications in
                Hashtbl.add t.table desc id;
                t.descriptors.(id) <- desc;
                t.classes.(id) <- cls;
                t.counts.(id) <- count;
                t.nclassifications <- id + 1
            | _ -> invalid_arg "Classifier.decode: malformed row")
        rest;
      t
  | _ -> invalid_arg "Classifier.decode: truncated"

(* Parallel int arrays, bottom frame at index 0 and top at [n - 1]:
   pushing and popping a frame allocates nothing. *)
type t = {
  mutable insts : int array;
  mutable classifications : int array;
  mutable sites : int array;
  mutable n : int;
}

let create () =
  {
    insts = Array.make 32 0;
    classifications = Array.make 32 0;
    sites = Array.make 32 0;
    n = 0;
  }

let grow t =
  let extend a =
    let b = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.insts <- extend t.insts;
  t.classifications <- extend t.classifications;
  t.sites <- extend t.sites

let push t ~inst ~classification ~site =
  let n = t.n in
  if n = Array.length t.insts then grow t;
  Array.unsafe_set t.insts n inst;
  Array.unsafe_set t.classifications n classification;
  Array.unsafe_set t.sites n site;
  t.n <- n + 1

let pop t =
  let n = t.n - 1 in
  if n < 0 then invalid_arg "Shadow_stack.pop: empty stack";
  t.n <- n

let depth t = t.n

let walk ?limit t ~frame =
  let k =
    match limit with
    | None -> t.n
    | Some k ->
        if k < 0 then invalid_arg "Shadow_stack.walk: negative limit";
        min k t.n
  in
  List.init k (fun i ->
      let j = t.n - 1 - i in
      frame ~inst:t.insts.(j) ~classification:t.classifications.(j) ~site:t.sites.(j))

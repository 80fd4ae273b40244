open Coign_idl

let qtest = QCheck_alcotest.to_alcotest

(* Random IDL types with conforming values, for the compiled-descriptor
   equivalence property. *)
let rec gen_type depth =
  let open QCheck.Gen in
  if depth = 0 then
    oneofl
      [ Idl_type.Int32; Idl_type.Int64; Idl_type.Double; Idl_type.Bool; Idl_type.Str;
        Idl_type.Blob; Idl_type.Iface "IAny" ]
  else
    frequency
      [
        (3, oneofl [ Idl_type.Int32; Idl_type.Str; Idl_type.Blob; Idl_type.Iface "IAny" ]);
        (1, map (fun t -> Idl_type.Array t) (gen_type (depth - 1)));
        (1, map (fun t -> Idl_type.Ptr t) (gen_type (depth - 1)));
        ( 1,
          map
            (fun ts -> Idl_type.Struct (List.mapi (fun i t -> (Printf.sprintf "f%d" i, t)) ts))
            (list_size (int_range 1 3) (gen_type (depth - 1))) );
      ]

let rec gen_value ty =
  let open QCheck.Gen in
  match ty with
  | Idl_type.Void -> return Value.Unit
  | Idl_type.Int32 | Idl_type.Int64 -> map (fun i -> Value.Int i) small_int
  | Idl_type.Double -> map (fun f -> Value.Float f) (float_bound_inclusive 1e6)
  | Idl_type.Bool -> map (fun b -> Value.Bool b) bool
  | Idl_type.Str -> map (fun s -> Value.Str s) (string_size (int_range 0 20))
  | Idl_type.Blob -> map (fun n -> Value.Blob n) (int_range 0 10_000)
  | Idl_type.Array elt -> map (fun vs -> Value.Arr vs) (list_size (int_range 0 4) (gen_value elt))
  | Idl_type.Struct fields ->
      let rec go = function
        | [] -> return []
        | (name, t) :: rest ->
            gen_value t >>= fun v ->
            go rest >>= fun vs -> return ((name, v) :: vs)
      in
      map (fun fvs -> Value.Struct fvs) (go fields)
  | Idl_type.Ptr pointee ->
      frequency [ (1, return Value.Null); (3, map (fun v -> Value.Ref v) (gen_value pointee)) ]
  | Idl_type.Iface _ -> map (fun h -> Value.Iface_ref h) (int_range 0 100)
  | Idl_type.Opaque tag -> return (Value.Opaque_handle tag)

let gen_typed_value =
  QCheck.Gen.(gen_type 3 >>= fun ty -> gen_value ty >>= fun v -> return (ty, v))

let arb_typed_value =
  QCheck.make
    ~print:(fun (ty, v) -> Format.asprintf "%a / %a" Idl_type.pp ty Value.pp v)
    gen_typed_value

(* --- Idl_type ------------------------------------------------------ *)

let test_remotable () =
  Alcotest.(check bool) "scalar" true (Idl_type.remotable Idl_type.Int32);
  Alcotest.(check bool) "opaque" false (Idl_type.remotable (Idl_type.Opaque "HDC"));
  Alcotest.(check bool) "nested opaque" false
    (Idl_type.remotable (Idl_type.Struct [ ("a", Idl_type.Int32); ("b", Idl_type.Opaque "X") ]));
  Alcotest.(check bool) "iface ok" true (Idl_type.remotable (Idl_type.Iface "IFoo"));
  Alcotest.(check bool) "array of ptr" true
    (Idl_type.remotable (Idl_type.Array (Idl_type.Ptr Idl_type.Str)))

let test_method_remotable () =
  let m = Idl_type.method_ "f" [ Idl_type.param "x" (Idl_type.Opaque "SHM") ] in
  Alcotest.(check bool) "opaque param" false (Idl_type.method_remotable m);
  let m2 = Idl_type.method_ ~ret:Idl_type.Blob "g" [ Idl_type.param "x" Idl_type.Int32 ] in
  Alcotest.(check bool) "clean" true (Idl_type.method_remotable m2)

let test_contains_iface () =
  Alcotest.(check bool) "direct" true (Idl_type.contains_iface (Idl_type.Iface "I"));
  Alcotest.(check bool) "nested" true
    (Idl_type.contains_iface (Idl_type.Ptr (Idl_type.Array (Idl_type.Iface "I"))));
  Alcotest.(check bool) "absent" false
    (Idl_type.contains_iface (Idl_type.Struct [ ("a", Idl_type.Blob) ]))

(* --- Value --------------------------------------------------------- *)

let test_conforms () =
  Alcotest.(check bool) "int32" true (Value.conforms Idl_type.Int32 (Value.Int 5));
  Alcotest.(check bool) "null ptr" true (Value.conforms (Idl_type.Ptr Idl_type.Str) Value.Null);
  Alcotest.(check bool) "null iface" true (Value.conforms (Idl_type.Iface "I") Value.Null);
  Alcotest.(check bool) "mismatch" false (Value.conforms Idl_type.Str (Value.Int 1));
  Alcotest.(check bool) "struct field order" false
    (Value.conforms
       (Idl_type.Struct [ ("a", Idl_type.Int32); ("b", Idl_type.Str) ])
       (Value.Struct [ ("b", Value.Str "x"); ("a", Value.Int 1) ]))

let prop_generated_values_conform =
  QCheck.Test.make ~name:"generated values conform to their types" ~count:500 arb_typed_value
    (fun (ty, v) -> Value.conforms ty v)

let test_iface_handles () =
  let v =
    Value.Struct
      [ ("a", Value.Iface_ref 3); ("b", Value.Arr [ Value.Iface_ref 7; Value.Int 1 ]);
        ("c", Value.Ref (Value.Iface_ref 9)) ]
  in
  Alcotest.(check (list int)) "handles in order" [ 3; 7; 9 ] (Value.iface_handles v)

let test_map_iface_handles () =
  let v = Value.Arr [ Value.Iface_ref 1; Value.Str "s"; Value.Ref (Value.Iface_ref 2) ] in
  let seen = ref [] in
  let v' =
    Value.map_iface_handles
      (fun h ->
        seen := h :: !seen;
        h * 10)
      v
  in
  Alcotest.(check (list int)) "mapped" [ 10; 20 ] (Value.iface_handles v');
  Alcotest.(check (list int)) "left to right" [ 1; 2 ] (List.rev !seen);
  (* Parts the map leaves unchanged are shared, not rebuilt. *)
  let plain = Value.Struct [ ("a", Value.Int 1); ("b", Value.Arr [ Value.Str "s" ]) ] in
  Alcotest.(check bool) "no handles: same value" true
    (Value.map_iface_handles (fun h -> h * 10) plain == plain);
  Alcotest.(check bool) "unchanged handles: same value" true
    (Value.map_iface_handles Fun.id v == v);
  let tail = [ Value.Str "t" ] in
  match Value.map_iface_handles_list (fun h -> h + 1) (Value.Iface_ref 4 :: tail) with
  | [ Value.Iface_ref 5; _ ] as l ->
      Alcotest.(check bool) "untouched tail shared" true (List.tl l == tail)
  | _ -> Alcotest.fail "map_iface_handles_list"

(* --- Marshal_size -------------------------------------------------- *)

let size_exn ty v =
  match Marshal_size.value_size ty v with
  | Ok n -> n
  | Error e -> Alcotest.failf "unexpected error: %a" Marshal_size.pp_error e

let test_scalar_sizes () =
  Alcotest.(check int) "int32" 4 (size_exn Idl_type.Int32 (Value.Int 1));
  Alcotest.(check int) "int64" 8 (size_exn Idl_type.Int64 (Value.Int 1));
  Alcotest.(check int) "double" 8 (size_exn Idl_type.Double (Value.Float 1.));
  Alcotest.(check int) "bool" 4 (size_exn Idl_type.Bool (Value.Bool true));
  Alcotest.(check int) "str" (4 + 5) (size_exn Idl_type.Str (Value.Str "hello"));
  Alcotest.(check int) "blob" (4 + 100) (size_exn Idl_type.Blob (Value.Blob 100));
  Alcotest.(check int) "null" 4 (size_exn (Idl_type.Ptr Idl_type.Str) Value.Null);
  Alcotest.(check int) "objref" Marshal_size.objref_size
    (size_exn (Idl_type.Iface "I") (Value.Iface_ref 1))

let test_deep_copy_compositional () =
  let ty = Idl_type.Struct [ ("a", Idl_type.Str); ("b", Idl_type.Array Idl_type.Int32) ] in
  let v = Value.Struct [ ("a", Value.Str "xy"); ("b", Value.Arr [ Value.Int 1; Value.Int 2 ]) ] in
  (* str: 4+2; array: 4 + 2*4 *)
  Alcotest.(check int) "struct" (6 + 12) (size_exn ty v)

let test_opaque_not_remotable () =
  match Marshal_size.value_size (Idl_type.Opaque "HDC") (Value.Opaque_handle "HDC") with
  | Error (Marshal_size.Not_remotable "HDC") -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Not_remotable"

let test_call_sizes_directions () =
  let msig =
    Idl_type.method_ ~ret:Idl_type.Blob "m"
      [
        Idl_type.param "inp" Idl_type.Blob;
        Idl_type.param ~dir:Idl_type.Out "outp" Idl_type.Blob;
        Idl_type.param ~dir:Idl_type.In_out "both" Idl_type.Blob;
      ]
  in
  let args = [ Value.Blob 100; Value.Blob 200; Value.Blob 300 ] in
  match Marshal_size.call msig ~args ~result:(Value.Blob 50) with
  | Error e -> Alcotest.failf "error: %a" Marshal_size.pp_error e
  | Ok s ->
      Alcotest.(check int) "request"
        (Marshal_size.scalar_overhead + 104 + 304)
        s.Marshal_size.request;
      Alcotest.(check int) "reply"
        (Marshal_size.scalar_overhead + 204 + 304 + 54)
        s.Marshal_size.reply;
      Alcotest.(check int) "total" (s.Marshal_size.request + s.Marshal_size.reply)
        (Marshal_size.total s)

let test_call_request_only () =
  let msig =
    Idl_type.method_ "m"
      [ Idl_type.param "a" Idl_type.Blob; Idl_type.param ~dir:Idl_type.Out "b" Idl_type.Blob ]
  in
  match Marshal_size.call_request_only msig ~args:[ Value.Blob 10; Value.Blob 999 ] with
  | Ok n -> Alcotest.(check int) "request only" (Marshal_size.scalar_overhead + 14) n
  | Error e -> Alcotest.failf "error: %a" Marshal_size.pp_error e

let test_call_arity_mismatch () =
  let msig = Idl_type.method_ "m" [ Idl_type.param "a" Idl_type.Int32 ] in
  match Marshal_size.call msig ~args:[] ~result:Value.Unit with
  | Error (Marshal_size.Type_mismatch _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected arity mismatch"

(* --- Midl ---------------------------------------------------------- *)

let prop_compiled_size_equals_interpreted =
  QCheck.Test.make ~name:"compiled descriptor computes the same size" ~count:500 arb_typed_value
    (fun (ty, v) ->
      let proc = Midl.compile ty in
      Midl.size_with proc v = Marshal_size.value_size ty v)

let test_iface_walk_trivial () =
  Alcotest.(check bool) "blob trivial" true
    (Midl.iface_walk_trivial (Midl.compile_iface_walk Idl_type.Blob));
  Alcotest.(check bool) "iface not trivial" false
    (Midl.iface_walk_trivial (Midl.compile_iface_walk (Idl_type.Iface "I")))

let test_method_procs_match_marshal () =
  let msig =
    Idl_type.method_ ~ret:(Idl_type.Iface "IOut") "m"
      [
        Idl_type.param "a" Idl_type.Str;
        Idl_type.param ~dir:Idl_type.In_out "b" (Idl_type.Ptr Idl_type.Blob);
      ]
  in
  let procs = Midl.compile_method msig in
  let args = [ Value.Str "abc"; Value.Ref (Value.Blob 64) ] in
  let result = Value.Iface_ref 4 in
  let compiled = Midl.method_call_size procs ~args ~result in
  let interpreted = Marshal_size.call msig ~args ~result in
  Alcotest.(check bool) "equal" true (compiled = interpreted)

let test_method_procs_remotable_flag () =
  let dirty = Idl_type.method_ "m" [ Idl_type.param "x" (Idl_type.Opaque "SHM") ] in
  Alcotest.(check bool) "non-remotable" false (Midl.compile_method dirty).Midl.remotable

(* --- Zero-allocation size walks ------------------------------------ *)

let prop_exn_walks_agree =
  (* Pair the type of one generated value with the value of another, so
     the walks hit both the success path and every mismatch arm. *)
  QCheck.Test.make ~name:"exn size walks agree with result walks" ~count:500
    (QCheck.pair arb_typed_value arb_typed_value)
    (fun ((ty, _), (_, v)) ->
      let proc = Midl.compile ty in
      let direct =
        match Marshal_size.value_size_exn ty v with
        | n -> Ok n
        | exception Marshal_size.Err e -> Error e
      in
      let compiled =
        match Midl.size_with_exn proc v with
        | n -> Ok n
        | exception Marshal_size.Err e -> Error e
      in
      direct = Marshal_size.value_size ty v
      && compiled = Midl.size_with proc v
      (* Compiled and interpreted agree on success/failure, and on the
         size when both succeed (error payloads differ by design: the
         compiled walk reports the proc's root type). *)
      && Result.is_ok direct = Result.is_ok compiled
      && match (direct, compiled) with Ok a, Ok b -> a = b | _ -> true)

let test_size_walk_zero_alloc () =
  let ty =
    Idl_type.Array
      (Idl_type.Struct
         [ ("x", Idl_type.Str); ("y", Idl_type.Int32);
           ("p", Idl_type.Ptr Idl_type.Blob); ("i", Idl_type.Iface "IPeer") ])
  in
  let v =
    Value.Arr
      (List.init 8 (fun i ->
           Value.Struct
             [ ("x", Value.Str (String.make 16 'x')); ("y", Value.Int i);
               ("p", Value.Ref (Value.Blob 128)); ("i", Value.Iface_ref i) ]))
  in
  let proc = Midl.compile ty in
  let expected =
    match Marshal_size.value_size ty v with Ok n -> n | Error _ -> -1 in
  (* Warm up, then measure: 10k walks of a nested value must not grow
     the minor heap beyond the noise of reading the GC counters. *)
  ignore (Marshal_size.value_size_exn ty v);
  ignore (Midl.size_with_exn proc v);
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    assert (Marshal_size.value_size_exn ty v = expected);
    assert (Midl.size_with_exn proc v = expected)
  done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "10k size walks allocated %.0f minor words" delta)
    true (delta < 64.)

let suite =
  [
    Alcotest.test_case "remotable" `Quick test_remotable;
    Alcotest.test_case "method remotable" `Quick test_method_remotable;
    Alcotest.test_case "contains iface" `Quick test_contains_iface;
    Alcotest.test_case "conforms" `Quick test_conforms;
    qtest prop_generated_values_conform;
    Alcotest.test_case "iface handles" `Quick test_iface_handles;
    Alcotest.test_case "map iface handles" `Quick test_map_iface_handles;
    Alcotest.test_case "scalar sizes" `Quick test_scalar_sizes;
    Alcotest.test_case "deep copy compositional" `Quick test_deep_copy_compositional;
    Alcotest.test_case "opaque not remotable" `Quick test_opaque_not_remotable;
    Alcotest.test_case "call size directions" `Quick test_call_sizes_directions;
    Alcotest.test_case "call request only" `Quick test_call_request_only;
    Alcotest.test_case "call arity mismatch" `Quick test_call_arity_mismatch;
    qtest prop_compiled_size_equals_interpreted;
    Alcotest.test_case "iface walk trivial" `Quick test_iface_walk_trivial;
    Alcotest.test_case "method procs match marshal" `Quick test_method_procs_match_marshal;
    Alcotest.test_case "method procs remotable flag" `Quick test_method_procs_remotable_flag;
    qtest prop_exn_walks_agree;
    Alcotest.test_case "size walks allocation-free" `Quick test_size_walk_zero_alloc;
  ]

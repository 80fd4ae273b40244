open Coign_core

let qtest = QCheck_alcotest.to_alcotest

(* The program of paper Figure 3:
     A::V() { a->W() }    A::W() { b1->X() }   B::X() { b2->Y() }
     B::Y() { c->Z() }    C::Z() { CoCreateInstance(D) }
   Stack at the instantiation of D, most recent first. *)
let figure3_stack ~ca ~cb1 ~cb2 ~cc =
  [
    Frame.make ~inst:4 ~cls:"C" ~classification:cc ~iface:"IC" ~meth:"Z";
    Frame.make ~inst:3 ~cls:"B" ~classification:cb2 ~iface:"IB" ~meth:"Y";
    Frame.make ~inst:2 ~cls:"B" ~classification:cb1 ~iface:"IB" ~meth:"X";
    Frame.make ~inst:1 ~cls:"A" ~classification:ca ~iface:"IA" ~meth:"W";
    Frame.make ~inst:1 ~cls:"A" ~classification:ca ~iface:"IA" ~meth:"V";
  ]

let stack = figure3_stack ~ca:10 ~cb1:11 ~cb2:12 ~cc:13

let desc kind = Classifier.descriptor (Classifier.create kind) ~cname:"D" ~stack

let test_figure3_descriptors () =
  Alcotest.(check string) "incremental" "[0]" (desc Classifier.Incremental);
  Alcotest.(check string) "st" "[D]" (desc Classifier.St);
  Alcotest.(check string) "pcb" "[D, C::Z, B::Y, B::X, A::W, A::V]" (desc Classifier.Pcb);
  Alcotest.(check string) "stcb" "[D, C, B, B, A]" (desc Classifier.Stcb);
  Alcotest.(check string) "ifcb" "[D, [c13,Z], [c12,Y], [c11,X], [c10,W], [c10,V]]"
    (desc Classifier.Ifcb);
  (* EPCB keeps only the frame through which control entered instance a
     (method V), dropping A::W. *)
  Alcotest.(check string) "epcb" "[D, [c13,Z], [c12,Y], [c11,X], [c10,V]]"
    (desc Classifier.Epcb);
  Alcotest.(check string) "ib" "[D, c13]" (desc Classifier.Ib);
  (* A depth limit applies before entry points collapse: at depth 4 the
     run of instance a is just its W frame. *)
  let limited kind =
    Classifier.descriptor (Classifier.create ~stack_depth:4 kind) ~cname:"D" ~stack
  in
  Alcotest.(check string) "epcb depth 4" "[D, [c13,Z], [c12,Y], [c11,X], [c10,W]]"
    (limited Classifier.Epcb);
  Alcotest.(check string) "stcb depth 4" "[D, C, B, B, A]" (limited Classifier.Stcb);
  (* The main program instantiates with an empty stack. *)
  let empty kind = Classifier.descriptor (Classifier.create kind) ~cname:"D" ~stack:[] in
  List.iter
    (fun (kind, expected) -> Alcotest.(check string) ("empty " ^ Classifier.kind_name kind) expected (empty kind))
    [
      (Classifier.Incremental, "[0]");
      (Classifier.Pcb, "[D]");
      (Classifier.St, "[D]");
      (Classifier.Stcb, "[D]");
      (Classifier.Ifcb, "[D]");
      (Classifier.Epcb, "[D]");
      (Classifier.Ib, "[D, root]");
    ];
  (* A frame of an instance that has no classification yet. *)
  let unclassified = [ Frame.make ~inst:7 ~cls:"E" ~classification:(-1) ~iface:"IE" ~meth:"ctor" ] in
  let one kind = Classifier.descriptor (Classifier.create kind) ~cname:"D" ~stack:unclassified in
  List.iter
    (fun (kind, expected) -> Alcotest.(check string) ("c-1 " ^ Classifier.kind_name kind) expected (one kind))
    [
      (Classifier.Incremental, "[0]");
      (Classifier.Pcb, "[D, E::ctor]");
      (Classifier.St, "[D]");
      (Classifier.Stcb, "[D, E]");
      (Classifier.Ifcb, "[D, [c-1,ctor]]");
      (Classifier.Epcb, "[D, [c-1,ctor]]");
      (Classifier.Ib, "[D, c-1]");
    ]

let test_incremental_orders () =
  let t = Classifier.create Classifier.Incremental in
  let c1 = Classifier.classify t ~cname:"D" ~stack in
  let c2 = Classifier.classify t ~cname:"D" ~stack in
  Alcotest.(check bool) "distinct" true (c1 <> c2)

let test_ifcb_groups_equal_contexts () =
  let t = Classifier.create Classifier.Ifcb in
  let c1 = Classifier.classify t ~cname:"D" ~stack in
  let c2 = Classifier.classify t ~cname:"D" ~stack in
  Alcotest.(check int) "same classification" c1 c2;
  Alcotest.(check int) "two instances counted" 2 (Classifier.instances_of t c1);
  let c3 = Classifier.classify t ~cname:"E" ~stack in
  Alcotest.(check bool) "different class differs" true (c3 <> c1)

let test_stack_depth_limits () =
  let shallow = Classifier.create ~stack_depth:1 Classifier.Ifcb in
  Alcotest.(check string) "depth 1" "[D, [c13,Z]]"
    (Classifier.descriptor shallow ~cname:"D" ~stack);
  let mid = Classifier.create ~stack_depth:3 Classifier.Ifcb in
  Alcotest.(check string) "depth 3" "[D, [c13,Z], [c12,Y], [c11,X]]"
    (Classifier.descriptor mid ~cname:"D" ~stack)

let test_depth_merges_contexts () =
  (* Two stacks differing only in the 2nd frame merge at depth 1. *)
  let s1 = stack in
  let s2 = figure3_stack ~ca:10 ~cb1:11 ~cb2:99 ~cc:13 in
  let t1 = Classifier.create ~stack_depth:1 Classifier.Ifcb in
  Alcotest.(check int) "merged at depth 1"
    (Classifier.classify t1 ~cname:"D" ~stack:s1)
    (Classifier.classify t1 ~cname:"D" ~stack:s2);
  let t2 = Classifier.create ~stack_depth:2 Classifier.Ifcb in
  Alcotest.(check bool) "separated at depth 2" true
    (Classifier.classify t2 ~cname:"D" ~stack:s1
    <> Classifier.classify t2 ~cname:"D" ~stack:s2)

let test_epcb_merges_internal_paths () =
  (* Entered via V, created from W vs created from V directly: IFCB
     distinguishes, EPCB does not. *)
  let via_w =
    [
      Frame.make ~inst:1 ~cls:"A" ~classification:10 ~iface:"IA" ~meth:"W";
      Frame.make ~inst:1 ~cls:"A" ~classification:10 ~iface:"IA" ~meth:"V";
    ]
  in
  let direct = [ Frame.make ~inst:1 ~cls:"A" ~classification:10 ~iface:"IA" ~meth:"V" ] in
  let ifcb = Classifier.create Classifier.Ifcb in
  Alcotest.(check bool) "ifcb distinguishes" true
    (Classifier.classify ifcb ~cname:"D" ~stack:via_w
    <> Classifier.classify ifcb ~cname:"D" ~stack:direct);
  let epcb = Classifier.create Classifier.Epcb in
  Alcotest.(check int) "epcb merges"
    (Classifier.classify epcb ~cname:"D" ~stack:via_w)
    (Classifier.classify epcb ~cname:"D" ~stack:direct)

let test_pcb_ignores_instances () =
  (* Same class::method chain through different instances. *)
  let s1 = figure3_stack ~ca:10 ~cb1:11 ~cb2:12 ~cc:13 in
  let s2 = figure3_stack ~ca:20 ~cb1:21 ~cb2:22 ~cc:23 in
  let pcb = Classifier.create Classifier.Pcb in
  Alcotest.(check int) "pcb merges"
    (Classifier.classify pcb ~cname:"D" ~stack:s1)
    (Classifier.classify pcb ~cname:"D" ~stack:s2);
  let ifcb = Classifier.create Classifier.Ifcb in
  Alcotest.(check bool) "ifcb separates" true
    (Classifier.classify ifcb ~cname:"D" ~stack:s1
    <> Classifier.classify ifcb ~cname:"D" ~stack:s2)

let test_lookup_no_mutation () =
  let t = Classifier.create Classifier.Ifcb in
  Alcotest.(check (option int)) "unknown" None (Classifier.lookup t ~cname:"D" ~stack);
  let c = Classifier.classify t ~cname:"D" ~stack in
  Alcotest.(check (option int)) "found" (Some c) (Classifier.lookup t ~cname:"D" ~stack);
  Alcotest.(check int) "count unchanged by lookup" 1 (Classifier.instances_of t c)

let test_freeze_counts () =
  let t = Classifier.create Classifier.Ifcb in
  ignore (Classifier.classify t ~cname:"D" ~stack);
  Classifier.freeze_counts t;
  ignore (Classifier.classify t ~cname:"D" ~stack);
  Alcotest.(check int) "frozen" 1 (Classifier.instance_count t);
  (* new descriptors still allocate *)
  ignore (Classifier.classify t ~cname:"E" ~stack);
  Alcotest.(check int) "new classification allocated" 2 (Classifier.classification_count t)

let test_metadata_accessors () =
  let t = Classifier.create Classifier.Stcb in
  let c = Classifier.classify t ~cname:"D" ~stack in
  Alcotest.(check string) "class" "D" (Classifier.class_of_classification t c);
  Alcotest.(check string) "descriptor" "[D, C, B, B, A]"
    (Classifier.descriptor_of_classification t c)

let test_encode_decode_roundtrip () =
  let t = Classifier.create ~stack_depth:4 Classifier.Ifcb in
  ignore (Classifier.classify t ~cname:"D" ~stack);
  ignore (Classifier.classify t ~cname:"D" ~stack);
  ignore (Classifier.classify t ~cname:"E" ~stack);
  let t' = Classifier.decode (Classifier.encode t) in
  Alcotest.(check int) "classifications" (Classifier.classification_count t)
    (Classifier.classification_count t');
  Alcotest.(check int) "instances" (Classifier.instance_count t) (Classifier.instance_count t');
  Alcotest.(check (option int)) "depth" (Some 4) (Classifier.stack_depth t');
  (* decoded state continues to classify consistently *)
  Alcotest.(check (option int)) "known context"
    (Classifier.lookup t ~cname:"D" ~stack)
    (Classifier.lookup t' ~cname:"D" ~stack)

let test_decode_rejects_malformed () =
  List.iter
    (fun (what, text, msg) ->
      Alcotest.check_raises what (Invalid_argument msg) (fun () ->
          ignore (Classifier.decode text)))
    [
      ("non-numeric count", "ifcb\nfull\n3\nx\tA\t[A]\n", "Classifier.decode: malformed row");
      ("negative count", "ifcb\nfull\n3\n-2\tA\t[A]\n", "Classifier.decode: malformed row");
      ("short row", "ifcb\nfull\n3\n1\t[A]\n", "Classifier.decode: malformed row");
      ("non-numeric depth", "ifcb\nx\n3\n", "Classifier.decode: malformed header");
      ("non-numeric order", "ifcb\nfull\nx\n", "Classifier.decode: malformed header");
    ]

let test_kind_names_roundtrip () =
  List.iter
    (fun k ->
      Alcotest.(check (option bool)) (Classifier.kind_name k) (Some true)
        (Option.map (fun k' -> k' = k) (Classifier.kind_of_name (Classifier.kind_name k))))
    Classifier.all_kinds

let arb_frames =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 6)
        (map
           (fun (inst, meth) ->
             Frame.make ~inst ~cls:(Printf.sprintf "K%d" (inst mod 3)) ~classification:inst
               ~iface:"I" ~meth:(Printf.sprintf "m%d" meth))
           (pair (int_range 0 5) (int_range 0 3))))
  in
  QCheck.make gen

let prop_classify_deterministic =
  QCheck.Test.make ~name:"equal contexts get equal classifications" ~count:300
    (QCheck.pair arb_frames (QCheck.oneofl [ Classifier.Pcb; Classifier.Stcb; Classifier.Ifcb; Classifier.Epcb; Classifier.Ib; Classifier.St ]))
    (fun (frames, kind) ->
      let t = Classifier.create kind in
      Classifier.classify t ~cname:"D" ~stack:frames
      = Classifier.classify t ~cname:"D" ~stack:frames)

let prop_encode_decode_stable =
  QCheck.Test.make ~name:"classifier state survives encode/decode" ~count:100 arb_frames
    (fun frames ->
      let t = Classifier.create Classifier.Ifcb in
      ignore (Classifier.classify t ~cname:"D" ~stack:frames);
      let t' = Classifier.decode (Classifier.encode t) in
      Classifier.lookup t' ~cname:"D" ~stack:frames = Classifier.lookup t ~cname:"D" ~stack:frames)

(* The int-keyed memo against the descriptor path: one random run of
   pushes, pops and instantiations drives a memo'd classifier through a
   live shadow stack and a plain one through the materialized frames;
   every classification, and the final encoded state (counts and
   ordinal included), must agree. Instances 0 and 4 are unclassified;
   a classified instance's class follows its classification, as in the
   RTE (a classification's descriptor names its class). Instances 2 and
   3 share a classification, so only the run boundaries tell their
   frames apart; two sites share each method name. *)
let inst_classification = [| -1; 0; 1; 1; -1; 2 |]
let pushed = [| 2; 3; 2; 3; 1; 4; 0; 5 |]

let inst_class i =
  let c = inst_classification.(i) in
  if c >= 0 then Printf.sprintf "K%d" (c mod 2) else Printf.sprintf "U%d" i

let prop_memo_matches_descriptors =
  let configs =
    List.concat_map
      (fun kind -> List.map (fun depth -> (kind, depth)) [ None; Some 1; Some 2; Some 3 ])
      Classifier.all_kinds
  in
  QCheck.Test.make ~name:"memo'd classify_stack == classify on the walked frames" ~count:1000
    QCheck.(pair (oneofl configs) (list_of_size (Gen.int_range 0 60) (int_bound 23)))
    (fun ((kind, stack_depth), ops) ->
      let memoed = Classifier.create ?stack_depth kind in
      let plain = Classifier.create ?stack_depth kind in
      let memo = Classifier.memo memoed in
      let stack = Shadow_stack.create () in
      let frame ~inst ~classification ~site =
        Frame.make ~inst ~cls:(inst_class inst) ~classification ~iface:"I"
          ~meth:(Printf.sprintf "m%d" (site mod 2))
      in
      let agree = ref true in
      List.iter
        (fun op ->
          if op < 16 then
            let inst = pushed.(op mod 8) in
            Shadow_stack.push stack ~inst ~classification:inst_classification.(inst) ~site:(op / 8)
          else if op < 20 then (if Shadow_stack.depth stack > 0 then Shadow_stack.pop stack)
          else
            let cname = if op < 22 then "D" else "E" in
            let a = Classifier.classify_stack memo ~cname stack ~frame in
            let b = Classifier.classify plain ~cname ~stack:(Shadow_stack.walk stack ~frame) in
            if a <> b then agree := false)
        ops;
      !agree && Classifier.encode memoed = Classifier.encode plain)

let suite =
  [
    Alcotest.test_case "figure 3 descriptors" `Quick test_figure3_descriptors;
    Alcotest.test_case "decode rejects malformed text" `Quick test_decode_rejects_malformed;
    Alcotest.test_case "incremental orders" `Quick test_incremental_orders;
    Alcotest.test_case "ifcb groups equal contexts" `Quick test_ifcb_groups_equal_contexts;
    Alcotest.test_case "stack depth limits" `Quick test_stack_depth_limits;
    Alcotest.test_case "depth merges contexts" `Quick test_depth_merges_contexts;
    Alcotest.test_case "epcb merges internal paths" `Quick test_epcb_merges_internal_paths;
    Alcotest.test_case "pcb ignores instances" `Quick test_pcb_ignores_instances;
    Alcotest.test_case "lookup no mutation" `Quick test_lookup_no_mutation;
    Alcotest.test_case "freeze counts" `Quick test_freeze_counts;
    Alcotest.test_case "metadata accessors" `Quick test_metadata_accessors;
    Alcotest.test_case "encode/decode roundtrip" `Quick test_encode_decode_roundtrip;
    Alcotest.test_case "kind names roundtrip" `Quick test_kind_names_roundtrip;
    qtest prop_classify_deterministic;
    qtest prop_encode_decode_stable;
    qtest prop_memo_matches_descriptors;
  ]

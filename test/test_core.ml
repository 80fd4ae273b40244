open Coign_util
open Coign_idl
open Coign_com
open Coign_core

let qtest = QCheck_alcotest.to_alcotest

(* --- Shadow stack --------------------------------------------------- *)

let frame ~inst ~classification ~site =
  Frame.make ~inst ~cls:"K" ~classification ~iface:"I" ~meth:(string_of_int site)

let test_shadow_stack_order () =
  let s = Shadow_stack.create () in
  Shadow_stack.push s ~inst:1 ~classification:10 ~site:100;
  Shadow_stack.push s ~inst:2 ~classification:20 ~site:200;
  Alcotest.(check int) "depth" 2 (Shadow_stack.depth s);
  let top (s : Shadow_stack.t) = s.insts.(s.n - 1) in
  Alcotest.(check int) "top" 2 (top s);
  Alcotest.(check int) "top classification" 20 s.classifications.(s.n - 1);
  Alcotest.(check (list int)) "sites from the bottom" [ 100; 200 ] [ s.sites.(0); s.sites.(1) ];
  Alcotest.(check (list (pair int string))) "walk order" [ (2, "200"); (1, "100") ]
    (List.map (fun f -> (f.Frame.f_inst, f.Frame.f_meth)) (Shadow_stack.walk s ~frame));
  Alcotest.(check (list int)) "limited walk" [ 2 ]
    (List.map (fun f -> f.Frame.f_inst) (Shadow_stack.walk ~limit:1 s ~frame));
  (* Deeper than the arrays it started with: the stack grows. *)
  for i = 3 to 100 do
    Shadow_stack.push s ~inst:i ~classification:i ~site:i
  done;
  Alcotest.(check int) "grown depth" 100 (Shadow_stack.depth s);
  Alcotest.(check int) "grown bottom" 1 s.insts.(0);
  Alcotest.(check int) "grown top" 100 (top s);
  for _ = 3 to 100 do
    Shadow_stack.pop s
  done;
  Shadow_stack.pop s;
  Shadow_stack.pop s;
  Alcotest.(check int) "empty" 0 (Shadow_stack.depth s);
  Alcotest.check_raises "underflow" (Invalid_argument "Shadow_stack.pop: empty stack")
    (fun () -> Shadow_stack.pop s)

(* --- Icc ------------------------------------------------------------ *)

let test_icc_record_and_entries () =
  let icc = Icc.create () in
  Icc.record icc ~src:1 ~dst:2 ~iface:"IQuery" ~remotable:true ~request:100 ~reply:50;
  Icc.record icc ~src:1 ~dst:2 ~iface:"IQuery" ~remotable:true ~request:100 ~reply:50;
  Icc.record icc ~src:2 ~dst:1 ~iface:"INotify" ~remotable:false ~request:10 ~reply:10;
  Alcotest.(check int) "calls" 3 (Icc.call_count icc);
  Alcotest.(check int) "bytes" 320 (Icc.total_bytes icc);
  let entries = Icc.entries icc in
  Alcotest.(check int) "two keys" 2 (List.length entries);
  let e = List.find (fun e -> e.Icc.iface = "IQuery") entries in
  Alcotest.(check int) "messages" 4 (Exp_bucket.message_count e.Icc.messages);
  Alcotest.(check bool) "remotable" true e.Icc.remotable;
  let e2 = List.find (fun e -> e.Icc.iface = "INotify") entries in
  Alcotest.(check bool) "non-remotable sticky" false e2.Icc.remotable

let test_icc_pair_entries () =
  let icc = Icc.create () in
  Icc.record icc ~src:1 ~dst:2 ~iface:"A" ~remotable:true ~request:1 ~reply:1;
  Icc.record icc ~src:2 ~dst:1 ~iface:"B" ~remotable:true ~request:1 ~reply:1;
  let pairs = Icc.pair_entries icc in
  Alcotest.(check int) "one unordered pair" 1 (List.length pairs);
  let (a, b), es = List.hd pairs in
  Alcotest.(check (pair int int)) "normalized" (1, 2) (a, b);
  Alcotest.(check int) "both ifaces" 2 (List.length es)

let test_icc_merge () =
  let a = Icc.create () and b = Icc.create () in
  Icc.record a ~src:1 ~dst:2 ~iface:"I" ~remotable:true ~request:10 ~reply:10;
  Icc.record b ~src:1 ~dst:2 ~iface:"I" ~remotable:false ~request:20 ~reply:20;
  let m = Icc.merge a b in
  Alcotest.(check int) "calls" 2 (Icc.call_count m);
  Alcotest.(check int) "bytes" 60 (Icc.total_bytes m);
  let e = List.hd (Icc.entries m) in
  Alcotest.(check bool) "non-remotable wins" false e.Icc.remotable

let test_icc_codec_preserves_totals () =
  let icc = Icc.create () in
  Icc.record icc ~src:0 ~dst:3 ~iface:"IQ" ~remotable:true ~request:123 ~reply:17;
  Icc.record icc ~src:0 ~dst:3 ~iface:"IQ" ~remotable:true ~request:124 ~reply:18;
  Icc.record icc ~src:(-1) ~dst:3 ~iface:"IR" ~remotable:false ~request:99_999 ~reply:0;
  let decoded = Icc.decode (Icc.encode icc) in
  Alcotest.(check int) "calls" (Icc.call_count icc) (Icc.call_count decoded);
  Alcotest.(check int) "bytes" (Icc.total_bytes icc) (Icc.total_bytes decoded);
  Alcotest.(check string) "encode fixpoint" (Icc.encode decoded)
    (Icc.encode (Icc.decode (Icc.encode decoded)))

let prop_icc_codec_fixpoint =
  QCheck.Test.make ~name:"icc encode/decode preserves counts and totals" ~count:100
    QCheck.(small_list (triple (int_bound 5) (int_bound 5) (int_bound 100_000)))
    (fun recs ->
      let icc = Icc.create () in
      List.iter
        (fun (src, dst, bytes) ->
          Icc.record icc ~src ~dst ~iface:"I" ~remotable:true ~request:bytes ~reply:(bytes / 2))
        recs;
      let d = Icc.decode (Icc.encode icc) in
      Icc.call_count d = Icc.call_count icc && Icc.total_bytes d = Icc.total_bytes icc)

(* Encodings of random tables are fixpoints of decode: the text names
   each (bucket, count, bytes) cell exactly. *)
let prop_icc_encoding_roundtrip =
  QCheck.Test.make ~name:"icc decode/encode reproduces an encoding" ~count:200
    QCheck.(
      small_list
        (pair
           (triple (int_range (-1) 6) (int_range 0 6) (oneofl [ "IA"; "IB"; "ICoCreateInstance"; "I" ]))
           (triple bool (int_bound 1_000_000) (int_bound 5000))))
    (fun recs ->
      let icc = Icc.create () in
      List.iter
        (fun ((src, dst, iface), (remotable, request, reply)) ->
          Icc.record icc ~src ~dst ~iface ~remotable ~request ~reply)
        recs;
      let s = Icc.encode icc in
      String.equal (Icc.encode (Icc.decode s)) s)

let test_icc_decode_rejects_malformed () =
  List.iter
    (fun (what, text) ->
      Alcotest.check_raises what (Invalid_argument "Icc.decode: malformed line") (fun () ->
          ignore (Icc.decode text)))
    [
      ("non-numeric bytes", "calls 3\n0\t1\tIFoo\t1\t0\tx\t5\n");
      ("non-numeric calls", "calls x\n");
      ("bucket index past the last bucket", "calls 1\n0\t1\tIFoo\t1\t99\t2\t64\n");
      ("negative bucket index", "calls 1\n0\t1\tIFoo\t1\t-1\t2\t64\n");
      ("negative count", "calls 1\n0\t1\tIFoo\t1\t0\t-2\t5\n");
      ("negative bytes", "calls 1\n0\t1\tIFoo\t1\t0\t2\t-5\n");
      ("remotable flag not 0/1", "calls 1\n0\t1\tIFoo\t2\t0\t2\t5\n");
      ("short line", "calls 1\n0\t1\tIFoo\t1\t0\t2\n");
      ("long line", "calls 1\n0\t1\tIFoo\t1\t0\t2\t5\t9\n");
    ]

(* --- Inst_comm ------------------------------------------------------ *)

let test_inst_comm () =
  let m = Inst_comm.create () in
  Inst_comm.record m ~src:1 ~dst:2 ~bytes:100;
  Inst_comm.record m ~src:2 ~dst:1 ~bytes:50;
  Inst_comm.record m ~src:1 ~dst:3 ~bytes:10;
  Alcotest.(check (pair int int)) "pair total" (2, 150) (Inst_comm.pair_total m 1 2);
  Alcotest.(check (pair int int)) "reversed" (2, 150) (Inst_comm.pair_total m 2 1);
  Alcotest.(check int) "messages" 3 (Inst_comm.message_count m);
  Alcotest.(check (list int)) "instances" [ 1; 2; 3 ] (Inst_comm.instances m);
  Alcotest.(check int) "peers of 1" 2 (List.length (Inst_comm.peers m 1))

(* --- Comm_vector ---------------------------------------------------- *)

let price ~count ~bytes = float_of_int count +. (float_of_int bytes /. 100.)

let mk_run pairs classify =
  let comm = Inst_comm.create () in
  List.iter (fun (src, dst, bytes) -> Inst_comm.record comm ~src ~dst ~bytes) pairs;
  {
    Comm_vector.classification_of = classify;
    comm;
    run_instances = Inst_comm.instances comm;
  }

let test_comm_vector_shape () =
  (* instance 1 talks to instance 2 (classification 0). *)
  let run = mk_run [ (1, 2, 200) ] (fun i -> if i = 2 then 0 else 1) in
  let v = Comm_vector.instance_vector run ~dims:2 ~price 1 in
  Alcotest.(check int) "dims+1" 3 (Array.length v);
  Alcotest.(check (float 1e-9)) "slot 0" (price ~count:1 ~bytes:200) v.(0);
  Alcotest.(check (float 1e-9)) "slot 1 empty" 0. v.(1)

let test_comm_vector_correlation_perfect () =
  let classify i = i mod 3 in
  let run1 = mk_run [ (1, 2, 100); (1, 3, 50) ] classify in
  let profiles = Comm_vector.classification_profiles ~runs:[ run1 ] ~dims:3 ~price in
  let corr = Comm_vector.average_correlation ~profiles ~test:run1 ~dims:3 ~price in
  Alcotest.(check (float 1e-9)) "self correlation" 1. corr

let test_comm_vector_unseen_classification () =
  let run1 = mk_run [ (1, 2, 100) ] (fun _ -> 0) in
  let profiles = Comm_vector.classification_profiles ~runs:[ run1 ] ~dims:1 ~price in
  (* test run maps instances to classification 5, which has no profile *)
  let test = mk_run [ (1, 2, 100) ] (fun _ -> 5) in
  Alcotest.(check (float 1e-9)) "zero for unseen" 0.
    (Comm_vector.average_correlation ~profiles ~test ~dims:1 ~price)

(* --- Logger --------------------------------------------------------- *)

let call_event ?(remotable = true) ~caller ~callee ~req ~rep () =
  Event.Interface_call
    {
      caller;
      caller_classification = caller * 10;
      callee;
      callee_classification = callee * 10;
      iface = "I";
      meth = "m";
      remotable;
      request_bytes = req;
      reply_bytes = rep;
    }

let test_profiling_logger () =
  let icc = Icc.create () and inst_comm = Inst_comm.create () in
  let logger = Logger.profiling ~icc ~inst_comm in
  logger.Logger.log (call_event ~caller:1 ~callee:2 ~req:100 ~rep:20 ());
  logger.Logger.log (Event.Component_instantiated { inst = 3; cname = "X"; classification = 1; creator = 0 });
  Alcotest.(check int) "icc calls" 1 (Icc.call_count icc);
  Alcotest.(check (pair int int)) "inst comm both directions" (2, 120)
    (Inst_comm.pair_total inst_comm 1 2)

let test_event_recorder_and_tee () =
  let rec_logger, events = Logger.event_recorder () in
  let counting, count = Logger.counting () in
  let tee = Logger.tee [ rec_logger; counting; Logger.null ] in
  tee.Logger.log (Event.Component_destroyed { inst = 5 });
  tee.Logger.log (call_event ~caller:1 ~callee:2 ~req:1 ~rep:1 ());
  Alcotest.(check int) "recorded" 2 (List.length (events ()));
  Alcotest.(check int) "counted" 2 (count ());
  match events () with
  | Event.Component_destroyed { inst } :: _ -> Alcotest.(check int) "order" 5 inst
  | _ -> Alcotest.fail "wrong order"

(* --- Informer ------------------------------------------------------- *)

let i_mixed =
  Itype.declare "IMixed"
    [
      Idl_type.method_ ~ret:(Idl_type.Iface "IOut") "m"
        [
          Idl_type.param "inp" Idl_type.Blob;
          Idl_type.param ~dir:Idl_type.Out "outp" Idl_type.Str;
          Idl_type.param ~dir:Idl_type.In_out "io" (Idl_type.Iface "IPeer");
        ];
    ]

let i_opaque =
  Itype.declare "IOpaqueTest" [ Idl_type.method_ "m" [ Idl_type.param "p" (Idl_type.Opaque "SHM") ] ]

let test_informer_measures () =
  let ins = [ Value.Blob 100; Value.Str ""; Value.Iface_ref 7 ] in
  let outs = [ Value.Blob 100; Value.Str "result"; Value.Iface_ref 8 ] in
  let sizes = Informer.measure_call i_mixed ~meth:0 ~ins ~outs ~ret:(Value.Iface_ref 9) in
  Alcotest.(check bool) "remotable" true sizes.Informer.remotable;
  Alcotest.(check int) "request"
    (Coign_idl.Marshal_size.scalar_overhead + 104 + Coign_idl.Marshal_size.objref_size)
    sizes.Informer.request_bytes;
  Alcotest.(check int) "reply"
    (Coign_idl.Marshal_size.scalar_overhead + 10 + (2 * Coign_idl.Marshal_size.objref_size))
    sizes.Informer.reply_bytes

let test_informer_non_remotable () =
  let sizes =
    Informer.measure_call i_opaque ~meth:0 ~ins:[ Value.Opaque_handle "SHM" ]
      ~outs:[ Value.Opaque_handle "SHM" ] ~ret:Value.Unit
  in
  Alcotest.(check bool) "flagged" false sizes.Informer.remotable;
  Alcotest.(check int) "zero request" 0 sizes.Informer.request_bytes

(* --- Constraints / static analysis ---------------------------------- *)

let test_static_analysis () =
  Alcotest.(check bool) "gui" true (Static_analysis.classify_api "user32.CreateWindowExW" = Static_analysis.Gui);
  Alcotest.(check bool) "storage exact" true
    (Static_analysis.classify_api "kernel32.ReadFile" = Static_analysis.Storage);
  Alcotest.(check bool) "odbc prefix" true
    (Static_analysis.classify_api "odbc32.SQLExecDirect" = Static_analysis.Storage);
  Alcotest.(check bool) "neutral" true
    (Static_analysis.classify_api "kernel32.VirtualAlloc" = Static_analysis.Neutral);
  Alcotest.(check bool) "gui wins" true
    (Static_analysis.class_verdict [ "kernel32.ReadFile"; "gdi32.BitBlt" ]
    = Static_analysis.Pin_client);
  Alcotest.(check bool) "storage only" true
    (Static_analysis.class_verdict [ "kernel32.ReadFile" ] = Static_analysis.Pin_server);
  Alcotest.(check bool) "free" true (Static_analysis.class_verdict [] = Static_analysis.Free)

let test_constraints_merge_conflict () =
  let a = Constraints.pin_class Constraints.empty ~cname:"X" Constraints.Client in
  let b = Constraints.pin_class Constraints.empty ~cname:"X" Constraints.Server in
  Alcotest.(check bool) "conflict raises" true
    (try
       ignore (Constraints.merge a b);
       false
     with Invalid_argument _ -> true);
  let ok = Constraints.merge a (Constraints.pin_class Constraints.empty ~cname:"Y" Constraints.Server) in
  Alcotest.(check (option bool)) "x client" (Some true)
    (Option.map (fun l -> l = Constraints.Client) (Constraints.class_pin ok ~cname:"X"))

let test_constraints_colocate_dedup () =
  let c = Constraints.colocate (Constraints.colocate Constraints.empty 3 1) 1 3 in
  Alcotest.(check (list (pair int int))) "normalized dedup" [ (1, 3) ]
    (Constraints.colocated_pairs c);
  Alcotest.(check (list (pair int int))) "self ignored" [ (1, 3) ]
    (Constraints.colocated_pairs (Constraints.colocate c 2 2))

let test_constraints_of_image () =
  let img =
    Coign_image.Binary_image.create ~name:"x"
      ~api_refs:
        [ ("Gui.Thing", [ "user32.GetDC" ]); ("Store.Thing", [ "kernel32.CreateFile" ]);
          ("Free.Thing", []) ]
      ()
  in
  let c = Constraints.of_image img in
  Alcotest.(check (option bool)) "gui pinned client" (Some true)
    (Option.map (fun l -> l = Constraints.Client) (Constraints.class_pin c ~cname:"Gui.Thing"));
  Alcotest.(check (option bool)) "storage pinned server" (Some true)
    (Option.map (fun l -> l = Constraints.Server) (Constraints.class_pin c ~cname:"Store.Thing"));
  Alcotest.(check (option bool)) "free unpinned" None
    (Option.map (fun l -> l = Constraints.Client) (Constraints.class_pin c ~cname:"Free.Thing"))

(* --- Drift signatures ----------------------------------------------- *)

let test_drift_similarity_hand_computed () =
  (* cos(a, b) = a·b / (|a||b|), computed by hand for small vectors. *)
  let sig_of l = Drift.of_counts l in
  let a = sig_of [ ((0, 1), 3); ((1, 2), 4) ] in
  Alcotest.(check (float 1e-12)) "identical" 1. (Drift.similarity a a);
  let scaled = sig_of [ ((0, 1), 30); ((1, 2), 40) ] in
  Alcotest.(check (float 1e-12)) "scale invariant" 1. (Drift.similarity a scaled);
  let orthogonal = sig_of [ ((2, 3), 7) ] in
  Alcotest.(check (float 1e-12)) "disjoint pairs" 0. (Drift.similarity a orthogonal);
  (* (3,4)·(4,3) / 25 = 24/25 *)
  let b = sig_of [ ((0, 1), 4); ((1, 2), 3) ] in
  Alcotest.(check (float 1e-12)) "24/25" 0.96 (Drift.similarity a b);
  (* (1,0)·(1,1) / (1·sqrt 2) = 1/sqrt 2 *)
  let unit = sig_of [ ((0, 1), 1) ] in
  let diag = sig_of [ ((0, 1), 1); ((1, 2), 1) ] in
  Alcotest.(check (float 1e-12)) "1/sqrt2" (1. /. sqrt 2.) (Drift.similarity unit diag);
  Alcotest.(check (float 1e-12)) "both empty" 1. (Drift.similarity (sig_of []) (sig_of []));
  Alcotest.(check (float 1e-12)) "empty vs non-empty" 0. (Drift.similarity (sig_of []) a);
  Alcotest.(check bool) "drifted below threshold" true
    (Drift.drifted ~threshold:0.97 ~profile:a b);
  Alcotest.(check bool) "not drifted above threshold" false
    (Drift.drifted ~threshold:0.95 ~profile:a b)

let gen_signature =
  QCheck.Gen.(
    list_size (int_bound 12)
      (pair (pair (int_bound 6) (int_bound 6)) (int_range 1 1000))
    >|= Drift.of_counts)

let arb_signature =
  QCheck.make
    ~print:(fun s ->
      String.concat ";"
        (List.map
           (fun ((a, b), w) -> Printf.sprintf "(%d,%d)=%g" a b w)
           (Drift.entries s)))
    gen_signature

let qcheck_drift_symmetric =
  QCheck.Test.make ~name:"drift similarity is symmetric" ~count:300
    (QCheck.pair arb_signature arb_signature)
    (fun (a, b) -> Float.abs (Drift.similarity a b -. Drift.similarity b a) < 1e-12)

let qcheck_drift_unit_interval =
  QCheck.Test.make ~name:"drift similarity lies in [0,1], self = 1" ~count:300
    (QCheck.pair arb_signature arb_signature)
    (fun (a, b) ->
      let s = Drift.similarity a b in
      s >= 0. && s <= 1. +. 1e-12
      && (Drift.pair_count a = 0 || Float.abs (Drift.similarity a a -. 1.) < 1e-12))

let suite =
  [
    Alcotest.test_case "shadow stack order" `Quick test_shadow_stack_order;
    Alcotest.test_case "icc record/entries" `Quick test_icc_record_and_entries;
    Alcotest.test_case "icc pair entries" `Quick test_icc_pair_entries;
    Alcotest.test_case "icc merge" `Quick test_icc_merge;
    Alcotest.test_case "icc codec preserves totals" `Quick test_icc_codec_preserves_totals;
    qtest prop_icc_codec_fixpoint;
    qtest prop_icc_encoding_roundtrip;
    Alcotest.test_case "icc decode rejects malformed lines" `Quick test_icc_decode_rejects_malformed;
    Alcotest.test_case "inst comm" `Quick test_inst_comm;
    Alcotest.test_case "comm vector shape" `Quick test_comm_vector_shape;
    Alcotest.test_case "comm vector self correlation" `Quick test_comm_vector_correlation_perfect;
    Alcotest.test_case "comm vector unseen classification" `Quick
      test_comm_vector_unseen_classification;
    Alcotest.test_case "profiling logger" `Quick test_profiling_logger;
    Alcotest.test_case "event recorder and tee" `Quick test_event_recorder_and_tee;
    Alcotest.test_case "informer measures" `Quick test_informer_measures;
    Alcotest.test_case "informer non-remotable" `Quick test_informer_non_remotable;
    Alcotest.test_case "static analysis" `Quick test_static_analysis;
    Alcotest.test_case "constraints merge conflict" `Quick test_constraints_merge_conflict;
    Alcotest.test_case "constraints colocate dedup" `Quick test_constraints_colocate_dedup;
    Alcotest.test_case "constraints of image" `Quick test_constraints_of_image;
    Alcotest.test_case "drift similarity hand computed" `Quick
      test_drift_similarity_hand_computed;
    qtest qcheck_drift_symmetric;
    qtest qcheck_drift_unit_interval;
  ]

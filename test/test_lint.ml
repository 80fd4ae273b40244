open Coign_idl
open Coign_netsim
open Coign_image
open Coign_core
open Coign_apps

(* --- Idl_type.finite ----------------------------------------------- *)

let test_finite_basic () =
  Alcotest.(check bool) "int" true (Idl_type.finite Idl_type.Int32);
  Alcotest.(check bool) "array of str" true (Idl_type.finite (Idl_type.Array Idl_type.Str));
  Alcotest.(check bool) "nested struct" true
    (Idl_type.finite
       (Idl_type.Struct
          [ ("a", Idl_type.Ptr (Idl_type.Struct [ ("b", Idl_type.Blob) ])) ]))

let test_finite_cycle () =
  (* The OCaml analog of an unbounded recursive struct: a linked list
     node whose [next] points back at itself. *)
  let rec node = Idl_type.Struct [ ("v", Idl_type.Int32); ("next", Idl_type.Ptr node) ] in
  Alcotest.(check bool) "cyclic struct" false (Idl_type.finite node);
  Alcotest.(check bool) "cyclic array" false
    (let rec a = Idl_type.Array a in
     Idl_type.finite a)

let test_finite_shared_subterm () =
  (* Sharing without a cycle (a DAG) must stay finite: the same payload
     struct appears under two fields. *)
  let payload = Idl_type.Struct [ ("data", Idl_type.Blob) ] in
  let dag = Idl_type.Struct [ ("l", Idl_type.Ptr payload); ("r", Idl_type.Ptr payload) ] in
  Alcotest.(check bool) "dag" true (Idl_type.finite dag)

(* --- Image_meta ----------------------------------------------------- *)

let test_meta_sanitizes_recursive () =
  let rec node = Idl_type.Struct [ ("next", Idl_type.Ptr node) ] in
  let meta =
    Image_meta.create
      ~ifaces:
        [
          {
            Image_meta.if_name = "IList";
            if_methods = [ Idl_type.method_ "walk" [ Idl_type.param "head" node ] ];
          };
        ]
      ~classes:[ { Image_meta.cl_name = "A"; cl_provides = [ "IList" ]; cl_creates = [] } ]
      ~roots:[ "A" ]
  in
  let i = Option.get (Image_meta.iface meta "IList") in
  let m = List.hd i.Image_meta.if_methods in
  let p = List.hd m.Idl_type.params in
  Alcotest.(check bool) "replaced by opaque marker" true
    (p.Idl_type.pty = Idl_type.Opaque Image_meta.recursive_marker);
  (* ... which the linter reports as an unbounded recursive structure. *)
  let diags = Lint.lint_meta meta in
  Alcotest.(check bool) "CG005 emitted" true
    (List.exists (fun d -> d.Lint.code = "CG005") diags)

let sample_meta () =
  Image_meta.create
    ~ifaces:
      [
        {
          Image_meta.if_name = "IRemote";
          if_methods = [ Idl_type.method_ ~ret:(Idl_type.Iface "IShared") "get" [] ];
        };
        {
          Image_meta.if_name = "IShared";
          if_methods =
            [ Idl_type.method_ "poke" [ Idl_type.param "h" (Idl_type.Opaque "HND") ] ];
        };
      ]
    ~classes:
      [
        { Image_meta.cl_name = "A"; cl_provides = [ "IRemote" ]; cl_creates = [ "B" ] };
        { Image_meta.cl_name = "B"; cl_provides = [ "IShared" ]; cl_creates = [] };
        { Image_meta.cl_name = "C"; cl_provides = [ "IRemote" ]; cl_creates = [] };
      ]
    ~roots:[ "A" ]

let test_meta_roundtrip () =
  let meta = sample_meta () in
  let meta' = Image_meta.decode (Image_meta.encode meta) in
  Alcotest.(check bool) "meta roundtrip" true (Image_meta.equal meta meta')

let test_image_meta_roundtrip () =
  let meta = sample_meta () in
  let with_meta =
    Binary_image.create ~name:"synthetic" ~meta
      ~api_refs:[ ("A", []); ("B", []); ("C", []) ]
      ()
  in
  let with_meta' = Binary_image.decode (Binary_image.encode with_meta) in
  Alcotest.(check bool) "image with meta roundtrips" true
    (Binary_image.equal with_meta with_meta');
  Alcotest.(check bool) "meta preserved" true
    (match with_meta'.Binary_image.meta with
    | Some m -> Image_meta.equal m meta
    | None -> false);
  (* Images from before the metadata section still decode. *)
  let without = Binary_image.create ~name:"legacy" ~api_refs:[ ("A", []) ] () in
  let without' = Binary_image.decode (Binary_image.encode without) in
  Alcotest.(check bool) "meta-less image roundtrips" true
    (Binary_image.equal without without');
  Alcotest.(check bool) "no meta" true (without'.Binary_image.meta = None)

(* --- Interface_flow on a synthetic program -------------------------- *)

(* MAIN creates A; A creates B and hands out B's IShared through
   IRemote.get; IShared carries a raw handle, so A and B must be
   co-located and B (reachable by MAIN) pins to the client. C is
   registered but nothing ever creates it. *)

let test_flow_pairs () =
  let flow = Interface_flow.analyze (sample_meta ()) in
  Alcotest.(check (list (pair string string)))
    "non-remotable pairs"
    [ ("A", "B") ]
    (Interface_flow.non_remotable_pairs flow);
  Alcotest.(check (list string)) "client pins" [ "B" ] (Interface_flow.client_pins flow);
  Alcotest.(check (list string)) "unreachable" [ "C" ]
    (Interface_flow.unreachable_classes flow);
  Alcotest.(check (list string)) "non-remotable ifaces" [ "IShared" ]
    (Interface_flow.non_remotable_ifaces flow);
  let refs = Interface_flow.references flow in
  Alcotest.(check bool) "MAIN reaches B transitively" true
    (List.mem (Coign_com.Runtime.main_class_name, "B") refs)

let test_flow_constraints () =
  let flow = Interface_flow.analyze (sample_meta ()) in
  let c = Interface_flow.constraints_of flow in
  Alcotest.(check (list (pair string string)))
    "colocation constraint" [ ("A", "B") ]
    (Constraints.colocated_class_pairs c);
  Alcotest.(check bool) "B pinned to client" true
    (Constraints.class_pin c ~cname:"B" = Some Constraints.Client)

let test_flow_accepts_direction () =
  (* Flow through an [In] interface parameter: A passes B's IShared
     into S's remotable sink, so S can also reach B. *)
  let meta =
    Image_meta.create
      ~ifaces:
        [
          {
            Image_meta.if_name = "ISink";
            if_methods =
              [ Idl_type.method_ "put" [ Idl_type.param "x" (Idl_type.Iface "IShared") ] ];
          };
          {
            Image_meta.if_name = "IShared";
            if_methods =
              [ Idl_type.method_ "poke" [ Idl_type.param "h" (Idl_type.Opaque "HND") ] ];
          };
        ]
      ~classes:
        [
          { Image_meta.cl_name = "A"; cl_provides = []; cl_creates = [ "B"; "S" ] };
          { Image_meta.cl_name = "B"; cl_provides = [ "IShared" ]; cl_creates = [] };
          { Image_meta.cl_name = "S"; cl_provides = [ "ISink" ]; cl_creates = [] };
        ]
      ~roots:[ "A" ]
  in
  let flow = Interface_flow.analyze meta in
  let pairs = Interface_flow.non_remotable_pairs flow in
  Alcotest.(check bool) "A-B pair" true (List.mem ("A", "B") pairs);
  Alcotest.(check bool) "B-S pair via In param" true (List.mem ("B", "S") pairs)

(* --- Golden lint output for the three applications ------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_golden app_name golden_path () =
  if not (Sys.file_exists golden_path) then Alcotest.skip ()
  else
    let app = Suite.find_app app_name in
    let diags = Lint.lint_image app.App.app_image in
    let got = Format.asprintf "%a" Lint.pp_text diags in
    Alcotest.(check string) (app_name ^ " lint output") (read_file golden_path) got

(* --- Acceptance: static analysis vs. the dynamic profiler ----------- *)

let net () = Net_profiler.profile (Coign_util.Prng.create 42L) Network.ethernet_10

let profile_bigone (app : App.t) =
  let image = Adps.instrument app.App.app_image in
  let sc = App.bigone app in
  let image, _ = Adps.profile ~image ~registry:app.App.app_registry sc.App.sc_run in
  image

let profiled =
  List.map (fun (app : App.t) -> (app.App.app_name, lazy (profile_bigone app))) Suite.all

let photodraw_profiled = List.assoc "photodraw" profiled

(* Every non-remotable class pair the dynamic profiler discovers (the
   paper's figure-5 "black web") must already be known statically:
   either as a non-remotable co-location pair or — when one endpoint is
   the main program — as a client pin. *)
let check_static_covers_dynamic (app : App.t) image =
  let classifier, icc = Option.get (Adps.load_profile image) in
  let meta = Option.get image.Binary_image.meta in
  let flow = Interface_flow.analyze meta in
  let static_pairs = Interface_flow.non_remotable_pairs flow in
  let pins = Interface_flow.client_pins flow in
  let main = Coign_com.Runtime.main_class_name in
  let name c = if c < 0 then main else Classifier.class_of_classification classifier c in
  let dynamic =
    Icc.entries icc
    |> List.filter (fun e -> not e.Icc.remotable)
    |> List.map (fun e ->
           let a = name e.Icc.src and b = name e.Icc.dst in
           (min a b, max a b))
    |> List.sort_uniq compare
    |> List.filter (fun (a, b) -> a <> b)
  in
  List.iter
    (fun (a, b) ->
      let covered =
        if a = main then List.mem b pins
        else if b = main then List.mem a pins
        else List.mem (a, b) static_pairs
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: static covers %s <-> %s" app.App.app_name a b)
        true covered)
    dynamic;
  (* Not vacuous: an app declaring a non-remotable interface uses it. *)
  Alcotest.(check bool)
    (app.App.app_name ^ ": profiler saw non-remotable traffic")
    (Interface_flow.non_remotable_ifaces flow <> [])
    (dynamic <> [])

let test_static_covers_dynamic () =
  List.iter
    (fun (app : App.t) ->
      check_static_covers_dynamic app (Lazy.force (List.assoc app.App.app_name profiled)))
    Suite.all

let test_analyze_accepts_own_cut () =
  let image = Lazy.force photodraw_profiled in
  let _, dist = Adps.analyze ~image ~net:(net ()) () in
  Alcotest.(check bool) "some classifications on the server" true
    (dist.Analysis.server_count > 0);
  Alcotest.(check bool) "not everything on the server" true
    (dist.Analysis.server_count < dist.Analysis.node_count)

(* Hand-force a distribution that splits a statically detected
   non-remotable pair: the validator must reject it at analyze time with
   CG007 errors, before replay could ever hit a runtime violation. *)
let test_forced_split_rejected () =
  let image = Lazy.force photodraw_profiled in
  let extra =
    Constraints.pin_class
      (Constraints.pin_class Constraints.empty ~cname:"PhotoDraw.Layer" Constraints.Client)
      ~cname:"PhotoDraw.SpriteCache" Constraints.Server
  in
  match Adps.analyze ~extra_constraints:extra ~image ~net:(net ()) () with
  | _ -> Alcotest.fail "expected Lint.Rejected"
  | exception Lint.Rejected diags ->
      Alcotest.(check bool) "diagnostics present" true (diags <> []);
      List.iter
        (fun d ->
          Alcotest.(check string) "code" "CG007" d.Lint.code;
          Alcotest.(check bool) "severity error" true (d.Lint.severity = Lint.Error))
        diags

let suite =
  [
    Alcotest.test_case "finite: basics" `Quick test_finite_basic;
    Alcotest.test_case "finite: cycles" `Quick test_finite_cycle;
    Alcotest.test_case "finite: shared subterm" `Quick test_finite_shared_subterm;
    Alcotest.test_case "meta sanitizes recursive types" `Quick test_meta_sanitizes_recursive;
    Alcotest.test_case "meta codec roundtrip" `Quick test_meta_roundtrip;
    Alcotest.test_case "image meta roundtrip" `Quick test_image_meta_roundtrip;
    Alcotest.test_case "flow: pairs, pins, unreachable" `Quick test_flow_pairs;
    Alcotest.test_case "flow: derived constraints" `Quick test_flow_constraints;
    Alcotest.test_case "flow: in-parameter direction" `Quick test_flow_accepts_direction;
    Alcotest.test_case "golden: photodraw" `Quick
      (check_golden "photodraw" "golden/lint_photodraw.txt");
    Alcotest.test_case "golden: octarine" `Quick
      (check_golden "octarine" "golden/lint_octarine.txt");
    Alcotest.test_case "golden: benefits" `Quick
      (check_golden "benefits" "golden/lint_benefits.txt");
    Alcotest.test_case "golden: ingest" `Quick (check_golden "ingest" "golden/lint_ingest.txt");
    Alcotest.test_case "static covers dynamic web" `Slow test_static_covers_dynamic;
    Alcotest.test_case "analyze accepts its own cut" `Slow test_analyze_accepts_own_cut;
    Alcotest.test_case "forced split rejected" `Slow test_forced_split_rejected;
  ]

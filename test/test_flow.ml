(* Interface_flow against the Jacobi-iteration oracle in [Flow_oracle]:
   every output must match, on random metadata and on the bundled
   applications. *)

open Coign_idl
open Coign_image
open Coign_core
open Coign_apps

let main = Coign_com.Runtime.main_class_name

(* All six outputs, side by side; [constraints_of] through its
   observable tables. *)
let outputs_equal meta =
  let t = Interface_flow.analyze meta and o = Flow_oracle.analyze meta in
  let tables c =
    ( Constraints.colocated_class_pairs c,
      Constraints.pinned_classes c,
      Constraints.colocated_pairs c,
      Constraints.pinned_classifications c )
  in
  Interface_flow.references t = Flow_oracle.references o
  && Interface_flow.non_remotable_pairs t = Flow_oracle.non_remotable_pairs o
  && Interface_flow.client_pins t = Flow_oracle.client_pins o
  && Interface_flow.unreachable_classes t = Flow_oracle.unreachable_classes o
  && Interface_flow.non_remotable_ifaces t = Flow_oracle.non_remotable_ifaces o
  && tables (Interface_flow.constraints_of t) = tables (Flow_oracle.constraints_of o)

(* Declared interfaces I0-I4; U0 is implemented or mentioned but never
   declared. Classes C0-C7; X0, X1 and MAIN appear only in creates and
   roots. Creates and roots are sparse, so that most references are
   derived rather than seeded. *)
let iface_pool = [ "I0"; "I1"; "I2"; "I3"; "I4"; "U0" ]
let class_pool = [ "C0"; "C1"; "C2"; "C3"; "C4"; "C5"; "C6"; "C7" ]
let unknown_pool = [ "X0"; "X1"; main ]

let gen_meta =
  let open QCheck.Gen in
  (* Each element kept with probability 1 / (1 + odds). *)
  let sub ?(odds = 1) pool =
    let coin = frequency [ (1, return true); (odds, return false) ] in
    map
      (fun keep -> List.filteri (fun i _ -> List.nth keep i) pool)
      (flatten_l (List.map (fun _ -> coin) pool))
  in
  let leaf =
    frequency
      [
        (2, oneofl [ Idl_type.Void; Idl_type.Int32; Idl_type.Str; Idl_type.Blob ]);
        (5, map (fun n -> Idl_type.Iface n) (oneofl iface_pool));
        (1, return (Idl_type.Opaque "HND"));
      ]
  in
  let rec ty depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (4, leaf);
          ( 1,
            map
              (fun fs -> Idl_type.Struct (List.mapi (fun i u -> (Printf.sprintf "f%d" i, u)) fs))
              (list_size (int_range 1 3) (ty (depth - 1))) );
          (1, map (fun u -> Idl_type.Array u) (ty (depth - 1)));
          (1, map (fun u -> Idl_type.Ptr u) (ty (depth - 1)));
        ]
  in
  let param i =
    map2
      (fun dir pty -> Idl_type.param ~dir (Printf.sprintf "p%d" i) pty)
      (oneofl [ Idl_type.In; Idl_type.Out; Idl_type.In_out ])
      (ty 2)
  in
  let method_ i =
    map2
      (fun ret params -> Idl_type.method_ ~ret (Printf.sprintf "m%d" i) params)
      (frequency [ (1, return Idl_type.Void); (2, ty 2) ])
      (int_range 0 3 >>= fun k -> flatten_l (List.init k param))
  in
  let iface name =
    map
      (fun ms -> { Image_meta.if_name = name; if_methods = ms })
      (int_range 0 3 >>= fun k -> flatten_l (List.init k method_))
  in
  let cls name =
    map2
      (fun provides creates ->
        { Image_meta.cl_name = name; cl_provides = provides; cl_creates = creates })
      (sub iface_pool)
      (sub ~odds:4 (class_pool @ unknown_pool))
  in
  int_range 1 (List.length class_pool) >>= fun k ->
  let names = List.filteri (fun i _ -> i < k) class_pool in
  sub (List.filter (fun n -> n <> "U0") iface_pool) >>= fun declared ->
  flatten_l (List.map iface declared) >>= fun ifaces ->
  flatten_l (List.map cls names) >>= fun classes ->
  sub ~odds:3 (names @ unknown_pool) >>= fun roots ->
  (* Most cases go through [Image_meta.create]; the rest keep the raw
     tables, unsorted and with a repeated class entry, as a decoded
     image may hold them. *)
  bool >>= fun raw ->
  if not raw then return (Image_meta.create ~ifaces ~classes ~roots)
  else
    oneofl names >>= fun dup ->
    cls dup >>= fun extra ->
    shuffle_l (extra :: classes) >>= fun classes ->
    return { Image_meta.ifaces = List.rev ifaces; classes; roots = List.rev roots }

let arb_meta = QCheck.make ~print:(Format.asprintf "%a" Image_meta.pp) gen_meta

let prop_matches_oracle =
  QCheck.Test.make ~name:"flow: worklist matches Jacobi oracle" ~count:2000 arb_meta
    outputs_equal

(* A hands C into B, but A only obtains B (from D's factory method)
   after its seeded handle on C has been processed: the derivation must
   still fire when the later premise arrives. *)
let test_late_premise () =
  let iface name methods = { Image_meta.if_name = name; if_methods = methods } in
  let cls name provides creates =
    { Image_meta.cl_name = name; cl_provides = provides; cl_creates = creates }
  in
  let meta =
    Image_meta.create
      ~ifaces:
        [
          iface "IFactory" [ Idl_type.method_ ~ret:(Idl_type.Iface "ISink") "make" [] ];
          iface "ISink"
            [ Idl_type.method_ "put" [ Idl_type.param "x" (Idl_type.Iface "IRaw") ] ];
          iface "IRaw"
            [ Idl_type.method_ "poke" [ Idl_type.param "h" (Idl_type.Opaque "HND") ] ];
        ]
      ~classes:
        [
          cls "A" [] [ "C"; "D" ];
          cls "B" [ "ISink" ] [];
          cls "C" [ "IRaw" ] [];
          cls "D" [ "IFactory" ] [ "B" ];
        ]
      ~roots:[ "A" ]
  in
  let flow = Interface_flow.analyze meta in
  Alcotest.(check bool) "A obtains B" true (List.mem ("A", "B") (Interface_flow.references flow));
  Alcotest.(check (list (pair string string)))
    "pairs" [ ("A", "C"); ("B", "C") ] (Interface_flow.non_remotable_pairs flow);
  Alcotest.(check bool) "matches oracle" true (outputs_equal meta)

let test_apps_match_oracle () =
  List.iter
    (fun (app : App.t) ->
      let meta = Option.get app.App.app_image.Binary_image.meta in
      Alcotest.(check bool) (app.App.app_name ^ " matches oracle") true (outputs_equal meta))
    Suite.all

let suite =
  [
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 12 |]) prop_matches_oracle;
    Alcotest.test_case "flow: handle passed in after a late derivation" `Quick test_late_premise;
    Alcotest.test_case "flow: bundled apps match Jacobi oracle" `Quick test_apps_match_oracle;
  ]

(* Heap, Engine, Network. *)
open Because_bgp
module Heap = Because_sim.Heap
module Engine = Because_sim.Engine
module Network = Because_sim.Network

let test_heap_orders () =
  let h = Heap.create () in
  List.iter (fun t -> Heap.push h ~time:t t) [ 3.0; 1.0; 2.0; 0.5; 2.5 ];
  let popped = ref [] in
  while not (Heap.is_empty h) do
    popped := Heap.take h :: !popped
  done;
  Alcotest.(check (list (float 0.0))) "sorted" [ 0.5; 1.0; 2.0; 2.5; 3.0 ]
    (List.rev !popped)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h ~time:1.0 v) [ "a"; "b"; "c" ];
  let order = List.init 3 (fun _ -> Heap.take h) in
  Alcotest.(check (list string)) "insertion order on ties" [ "a"; "b"; "c" ] order

let test_heap_size_empty () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Heap.push h ~time:1.0 ();
  Alcotest.(check int) "size" 1 (Heap.size h);
  Alcotest.(check (float 0.0)) "top time" 1.0 (Heap.top_time h);
  Heap.take h;
  Alcotest.check_raises "take on empty"
    (Invalid_argument "Heap.take: empty heap") (fun () -> Heap.take h)

let qcheck_heap_sorted =
  QCheck.Test.make ~name:"heap pops in time order" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 100) (float_range 0.0 1e6))
    (fun times ->
      let h = Heap.create () in
      List.iter (fun t -> Heap.push h ~time:t t) times;
      let rec drain acc =
        if Heap.is_empty h then List.rev acc
        else begin
          let t = Heap.top_time h in
          ignore (Heap.take h);
          drain (t :: acc)
        end
      in
      let out = drain [] in
      out = List.sort Float.compare times)

(* Few distinct times, so most events tie; pops interleave with pushes.
   The heap must pop exactly a stable sort by time of what was pushed. *)
let qcheck_heap_stable_interleaved =
  QCheck.Test.make ~name:"heap pops a stable sort under interleaved pops"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 0 200) (pair (int_range 0 9) bool))
    (fun ops ->
      let h = Heap.create () in
      let pending = ref [] and popped = ref [] and expected = ref [] in
      let pop () =
        (* [pending] is newest first, so the stable minimum is the last
           element of the earliest time. *)
        let time = Heap.top_time h in
        let first =
          List.fold_left
            (fun acc ((t, _) as e) -> if t <= fst acc then e else acc)
            (List.hd !pending) !pending
        in
        pending := List.filter (fun (_, k) -> k <> snd first) !pending;
        expected := first :: !expected;
        popped := (time, Heap.take h) :: !popped
      in
      List.iteri
        (fun k (t, pop_after) ->
          let e = (float_of_int t, k) in
          Heap.push h ~time:(fst e) (snd e);
          pending := e :: !pending;
          if pop_after then pop ())
        ops;
      while not (Heap.is_empty h) do
        pop ()
      done;
      !popped = !expected)

let test_engine_runs_in_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~time:2.0 "b";
  Engine.schedule e ~time:1.0 "a";
  Engine.run e ~until:10.0 ~handler:(fun ~now v -> log := (now, v) :: !log);
  Alcotest.(check (list (pair (float 0.0) string)))
    "ordered" [ (1.0, "a"); (2.0, "b") ] (List.rev !log)

let test_engine_until () =
  let e = Engine.create () in
  let count = ref 0 in
  Engine.schedule e ~time:1.0 ();
  Engine.schedule e ~time:5.0 ();
  Engine.run e ~until:3.0 ~handler:(fun ~now:_ () -> incr count);
  Alcotest.(check int) "stops at until" 1 !count;
  Alcotest.(check int) "pending kept" 1 (Engine.pending e)

let test_engine_handler_schedules () =
  let e = Engine.create () in
  let fired = ref [] in
  Engine.schedule e ~time:1.0 1;
  Engine.run e ~until:10.0 ~handler:(fun ~now v ->
      fired := v :: !fired;
      if v < 3 then Engine.schedule e ~time:(now +. 1.0) (v + 1));
  Alcotest.(check (list int)) "cascade" [ 1; 2; 3 ] (List.rev !fired)

let test_engine_past_clamped () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~time:5.0 "first";
  Engine.run e ~until:4.0 ~handler:(fun ~now:_ _ -> ());
  ignore (Engine.step e ~handler:(fun ~now:_ v -> log := v :: !log));
  (* now = 5; scheduling in the past clamps to now *)
  Engine.schedule e ~time:1.0 "late";
  ignore (Engine.step e ~handler:(fun ~now v ->
      Alcotest.(check (float 0.0)) "clamped time" 5.0 now;
      log := v :: !log));
  Alcotest.(check (list string)) "both ran" [ "late"; "first" ] !log

(* A 3-AS line: 65001 (origin, customer of 2) — 2 — 3 (customer of 2 hosting
   a vantage point). *)
let line_configs =
  let asn = Asn.of_int in
  [
    { Router.asn = asn 65001;
      neighbors = [ { Router.neighbor_asn = asn 2; relationship = Policy.Provider; mrai = 0.0 } ];
      rfd_scope = Policy.No_rfd; rfd_params = Rfd_params.cisco };
    { Router.asn = asn 2;
      neighbors =
        [ { Router.neighbor_asn = asn 65001; relationship = Policy.Customer; mrai = 0.0 };
          { Router.neighbor_asn = asn 3; relationship = Policy.Customer; mrai = 0.0 } ];
      rfd_scope = Policy.No_rfd; rfd_params = Rfd_params.cisco };
    { Router.asn = asn 3;
      neighbors = [ { Router.neighbor_asn = asn 2; relationship = Policy.Provider; mrai = 0.0 } ];
      rfd_scope = Policy.No_rfd; rfd_params = Rfd_params.cisco };
  ]

let make_line () =
  Network.create ~configs:line_configs
    ~delay:(fun ~from_asn:_ ~to_asn:_ -> 1.0)
    ~monitored:(Asn.Set.singleton (Asn.of_int 3)) ()

let prefix = Prefix.of_string "10.0.0.0/24"

let test_network_propagation () =
  let net = make_line () in
  Network.schedule_announce net ~time:0.0 ~origin:(Asn.of_int 65001) prefix;
  Network.run net ~until:100.0;
  let feed = Network.feed net (Asn.of_int 3) in
  (match feed with
  | [ (t, Update.Announce a) ] ->
      Alcotest.(check (float 1e-9)) "arrives after 2 hops" 2.0 t;
      Alcotest.(check (list int)) "full path" [ 3; 2; 65001 ]
        (List.map Asn.to_int a.as_path);
      let agg = Option.get a.aggregator in
      Alcotest.(check (float 0.0)) "aggregator stamped" 0.0 agg.Update.sent_at
  | _ -> Alcotest.fail "expected exactly one feed announcement");
  let stats = Network.stats net in
  Alcotest.(check int) "two deliveries" 2 stats.Network.deliveries

let test_network_withdraw () =
  let net = make_line () in
  Network.schedule_announce net ~time:0.0 ~origin:(Asn.of_int 65001) prefix;
  Network.schedule_withdraw net ~time:10.0 ~origin:(Asn.of_int 65001) prefix;
  Network.run net ~until:100.0;
  match Network.feed net (Asn.of_int 3) with
  | [ (_, Update.Announce _); (t, Update.Withdraw _) ] ->
      Alcotest.(check (float 1e-9)) "withdraw timing" 12.0 t
  | l -> Alcotest.failf "unexpected feed of %d records" (List.length l)

let test_network_unmonitored_silent () =
  let net = make_line () in
  Network.schedule_announce net ~time:0.0 ~origin:(Asn.of_int 65001) prefix;
  Network.run net ~until:100.0;
  Alcotest.(check int) "unmonitored AS has no feed" 0
    (List.length (Network.feed net (Asn.of_int 2)))

let test_network_mrai_batches () =
  (* With a 30 s MRAI on the middle router's session towards the VP host,
     rapid origin churn collapses into far fewer downstream announcements. *)
  let asn = Asn.of_int in
  let mk mrai =
    let configs =
      [
        { Router.asn = asn 65001;
          neighbors = [ { Router.neighbor_asn = asn 2; relationship = Policy.Provider; mrai = 0.0 } ];
          rfd_scope = Policy.No_rfd; rfd_params = Rfd_params.cisco };
        { Router.asn = asn 2;
          neighbors =
            [ { Router.neighbor_asn = asn 65001; relationship = Policy.Customer; mrai = 0.0 };
              { Router.neighbor_asn = asn 3; relationship = Policy.Customer; mrai } ];
          rfd_scope = Policy.No_rfd; rfd_params = Rfd_params.cisco };
        { Router.asn = asn 3;
          neighbors = [ { Router.neighbor_asn = asn 2; relationship = Policy.Provider; mrai = 0.0 } ];
          rfd_scope = Policy.No_rfd; rfd_params = Rfd_params.cisco };
      ]
    in
    let net =
      Network.create ~configs
        ~delay:(fun ~from_asn:_ ~to_asn:_ -> 0.1)
        ~monitored:(Asn.Set.singleton (asn 3)) ()
    in
    (* 20 announcements 5 s apart, each with a fresh aggregator. *)
    for k = 0 to 19 do
      Network.schedule_announce net ~time:(float_of_int k *. 5.0)
        ~origin:(asn 65001) prefix
    done;
    Network.run net ~until:500.0;
    List.length
      (List.filter
         (fun (_, u) -> Update.is_announce u)
         (Network.feed net (asn 3)))
  in
  let without_mrai = mk 0.0 in
  let with_mrai = mk 30.0 in
  Alcotest.(check int) "no MRAI: every update forwarded" 20 without_mrai;
  Alcotest.(check bool)
    (Printf.sprintf "MRAI batches (%d < %d)" with_mrai without_mrai)
    true
    (with_mrai <= 6)

let suite =
  ( "sim",
    [
      Alcotest.test_case "heap orders" `Quick test_heap_orders;
      Alcotest.test_case "heap FIFO ties" `Quick test_heap_fifo_ties;
      Alcotest.test_case "heap size/empty" `Quick test_heap_size_empty;
      QCheck_alcotest.to_alcotest qcheck_heap_sorted;
      QCheck_alcotest.to_alcotest qcheck_heap_stable_interleaved;
      Alcotest.test_case "engine order" `Quick test_engine_runs_in_order;
      Alcotest.test_case "engine until" `Quick test_engine_until;
      Alcotest.test_case "engine cascade" `Quick test_engine_handler_schedules;
      Alcotest.test_case "engine clamps past" `Quick test_engine_past_clamped;
      Alcotest.test_case "network propagation" `Quick test_network_propagation;
      Alcotest.test_case "network withdraw" `Quick test_network_withdraw;
      Alcotest.test_case "network unmonitored" `Quick
        test_network_unmonitored_silent;
      Alcotest.test_case "MRAI batches updates" `Quick test_network_mrai_batches;
    ] )

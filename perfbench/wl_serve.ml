(* serve_mixed: the real query router on the HTTP server (2 threads) over a
   1-worker service, driven as an open loop at fixed rates by two client
   threads on one keep-alive connection each.  The submitter POSTs seeded
   Spec.default-sized campaigns below capacity — every fourth with
   faults=realistic — and polls each one's report; the reader GETs /status,
   /matrix and /estimates in turn.  Every request is timed from when it was
   due, so a stall also charges the requests queued behind it.  Each
   store mutation invalidates the snapshot cache the reads are served
   from, so read-side and write-side changes show up against each other. *)

module Tel = Because_telemetry.Registry
module Svc = Because_service.Service
module Spec = Because_service.Spec
module Store = Because_service.Store
module Server = Because_http.Server

(* The open loop's fixed rates (also stated in BENCHMARK.json). *)
let submit_every_s = 2.0
let fault_every = 4
let poll_every_s = 0.01
let read_every_s = 0.02
let read_paths = [| "status"; "matrix"; "estimates" |]
let warmup_campaigns = 3
let drain_limit_s = 60.0

(* A generator that runs this late behind its schedule measures itself,
   not the server: the run is invalid. *)
let late_limit_s = 1.0

(* ------------------------------------------------------------ client *)

type conn = { port : int; mutable fd : Unix.file_descr option; scratch : Bytes.t }

let connect c =
  match c.fd with
  | Some fd -> fd
  | None ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try
         Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, c.port));
         Unix.setsockopt fd Unix.TCP_NODELAY true;
         Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0
       with e ->
         Unix.close fd;
         raise e);
      c.fd <- Some fd;
      fd

let close c =
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) c.fd;
  c.fd <- None

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let find s sub from =
  let n = String.length sub and m = String.length s in
  let rec go i =
    if i + n > m then -1 else if String.sub s i n = sub then i else go (i + 1)
  in
  go from

(* One request/response on the keep-alive connection: (status, body).
   The server always frames with Content-Length. *)
let request c ~meth ~path ~body =
  let fd = connect c in
  write_all fd
    (Printf.sprintf "%s %s HTTP/1.1\r\nHost: perfbench\r\nContent-Length: %d\r\n\r\n%s"
       meth path (String.length body) body)
    0;
  let b = Buffer.create 4096 in
  let fill () =
    let n = Unix.read fd c.scratch 0 (Bytes.length c.scratch) in
    if n = 0 then failwith "connection closed";
    Buffer.add_subbytes b c.scratch 0 n
  in
  let rec head () =
    match find (Buffer.contents b) "\r\n\r\n" 0 with
    | -1 ->
        fill ();
        head ()
    | i -> i
  in
  let head_end = head () in
  let raw = Buffer.contents b in
  let lower = String.lowercase_ascii (String.sub raw 0 head_end) in
  let clen =
    match find lower "content-length:" 0 with
    | -1 -> 0
    | i ->
        let stop = find lower "\r\n" i in
        let stop = if stop < 0 then String.length lower else stop in
        int_of_string (String.trim (String.sub lower (i + 15) (stop - i - 15)))
  in
  while Buffer.length b < head_end + 4 + clen do
    fill ()
  done;
  let status = int_of_string (String.sub raw 9 3) in
  (status, Buffer.sub b (head_end + 4) clen)

(* ---------------------------------------------------------- the loop *)

type sample = { kind : string; due : float; sent : float; done_ : float; ok : bool; bytes : int }

type campaign = {
  cid : string;
  spec : Spec.t;
  submit_due : float;
  submitted : Pb.clock;
  mutable report : string option;
  mutable reported : Pb.clock;
  mutable rhat : float;  (* worst R̂ gauge on /metrics once reported *)
}

type outcome = {
  samples : sample list;
  campaigns : campaign list;
  svc : Svc.t;
  registry : Tel.t;
  state : string;
  setup_s : float;
}

(* The campaign sequence is fixed — world seeds 42, 43, … — so the
   planted-truth and convergence figures are one reference across runs;
   the benchmark seed sets the read schedule's phase and rotation. *)
let spec_of k =
  let id = Printf.sprintf "c%03d" k in
  { (Spec.default ~id) with
    Spec.seed = 42 + k;
    faults = (if k mod fault_every = fault_every - 1 then "realistic" else "none") }

let rec wait_done svc id =
  match Svc.report_for svc ~id with
  | `Done _ -> ()
  | `Pending ->
      Thread.delay 0.005;
      wait_done svc id
  | `Unknown -> Pb.fail "warm-up campaign %s unknown" id

let rhat_of_prometheus text =
  List.fold_left
    (fun acc line ->
      match String.split_on_char ' ' line with
      | [ name; v ] when String.starts_with ~prefix:"because_mcmc_rhat_" name -> (
          match float_of_string_opt v with Some v -> Float.max acc v | None -> acc)
      | _ -> acc)
    neg_infinity
    (String.split_on_char '\n' text)

(* Wait for a due time on the monotonic clock. *)
let sleep_until t =
  let d = t -. Pb.now_s () in
  if d > 0.0 then Thread.delay d

let run_loop ~seed ~seconds ~spans =
  let c_setup = Pb.start () in
  let state = Pb.work_dir "serve" in
  let registry = Tel.create () in
  let svc = Svc.create { (Svc.default_config ~state_dir:state) with Svc.telemetry = registry } in
  Svc.start svc;
  let server =
    Server.start ~registry ~threads:2 ~port:0
      (Because_service.Query.router ~registry svc)
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Svc.stop_when_idle svc;
      ignore (Svc.join svc))
    (fun () ->
      (* Set-up: a live store, so reads render documents of real size. *)
      for k = 1 to warmup_campaigns do
        let spec = { (spec_of (1000 + k)) with Spec.id = Printf.sprintf "warm%d" k } in
        match Svc.submit svc spec with
        | Ok _ -> wait_done svc spec.Spec.id
        | Error r -> Pb.fail "warm-up refused: %s" (Because_service.Admission.reason_to_string r)
      done;
      let setup_s = Pb.unstolen c_setup (Pb.stop ()) in
      let port = Server.port server in
      let mu = Mutex.create () in
      let samples = ref [] in
      let add s = Mutex.protect mu (fun () -> samples := s :: !samples) in
      let t0 = Pb.now_s () +. 0.05 in
      let stop_at = t0 +. seconds in
      (* One timed request; transport errors count as failures and the
         connection is re-opened for the next request. *)
      let timed c ~kind ~due ~meth ~path ~body ~expect =
        sleep_until due;
        let sent = Pb.now_s () in
        let status, resp =
          try request c ~meth ~path ~body
          with e ->
            close c;
            (0, Printexc.to_string e)
        in
        let done_ = Pb.now_s () in
        let ok = List.mem status expect in
        add { kind; due; sent; done_; ok; bytes = String.length resp };
        Spans.record spans ~name:("http." ^ kind)
          ~start_ns:(Int64.of_float (due *. 1e9))
          ~end_ns:(Int64.of_float (done_ *. 1e9));
        (status, resp)
      in
      let reader () =
        let c = { port; fd = None; scratch = Bytes.create 65536 } in
        let phase = float_of_int (abs seed mod 10) /. 10.0 *. read_every_s in
        let rec go k =
          let due = t0 +. phase +. (float_of_int k *. read_every_s) in
          if due < stop_at then begin
            let doc = read_paths.((k + abs seed) mod Array.length read_paths) in
            ignore
              (timed c ~kind:("read." ^ doc) ~due ~meth:"GET" ~path:("/" ^ doc)
                 ~body:"" ~expect:[ 200 ]);
            go (k + 1)
          end
        in
        go 0;
        close c
      in
      let campaigns = ref [] in
      let submitter () =
        let c = { port; fd = None; scratch = Bytes.create 65536 } in
        let drain_until = stop_at +. drain_limit_s in
        let rec go ~next_submit ~k ~next_poll =
          let outstanding = List.filter (fun x -> x.report = None) !campaigns in
          if next_submit >= stop_at && (outstanding = [] || next_poll > drain_until)
          then ()
          else if next_submit < stop_at && next_submit <= next_poll then begin
            let spec = spec_of k in
            let status, _ =
              timed c ~kind:"submit" ~due:next_submit ~meth:"POST" ~path:"/submit"
                ~body:(Spec.to_line spec) ~expect:[ 202 ]
            in
            if status = 202 then
              campaigns :=
                { cid = spec.Spec.id; spec; submit_due = next_submit;
                  submitted = Pb.stop (); report = None;
                  reported = { Pb.wall = nan; steal = [||] }; rhat = nan }
                :: !campaigns;
            go ~next_submit:(t0 +. (float_of_int (k + 1) *. submit_every_s))
              ~k:(k + 1) ~next_poll
          end
          else begin
            List.iter
              (fun x ->
                match
                  timed c ~kind:"poll" ~due:next_poll ~meth:"GET"
                    ~path:("/campaigns/" ^ x.cid ^ "/report") ~body:"" ~expect:[ 200; 202 ]
                with
                | 200, body ->
                    x.report <- Some body;
                    x.reported <- Pb.stop ();
                    (* The operator's convergence check: the sampler R̂
                       gauges, set by this campaign's inference just
                       before its report was published. *)
                    let _, prom =
                      timed c ~kind:"metrics" ~due:x.reported.Pb.wall ~meth:"GET"
                        ~path:"/metrics" ~body:"" ~expect:[ 200 ]
                    in
                    x.rhat <- rhat_of_prometheus prom
                | _ -> ())
              outstanding;
            go ~next_submit ~k ~next_poll:(next_poll +. poll_every_s)
          end
        in
        go ~next_submit:t0 ~k:0 ~next_poll:(t0 +. poll_every_s);
        close c
      in
      let threads = [ Thread.create reader (); Thread.create submitter () ] in
      List.iter Thread.join threads;
      { samples = List.rev !samples;
        campaigns = List.rev !campaigns;
        svc;
        registry;
        state;
        setup_s })

(* Every report served over HTTP must equal the service's own. *)
let check o =
  List.iter
    (fun x ->
      match (x.report, Svc.report_for o.svc ~id:x.cid) with
      | Some body, `Done r ->
          Pb.check (String.equal body r) "campaign %s: HTTP report differs" x.cid
      | None, _ -> Pb.check false "campaign %s: no report within %gs" x.cid drain_limit_s
      | Some _, _ -> Pb.check false "campaign %s: reported but not done" x.cid)
    o.campaigns;
  let late =
    Pb.quantile (List.map (fun s -> s.sent -. s.due) o.samples) 0.99
  in
  Pb.check (late <= late_limit_s) "load generator fell %.3fs behind schedule" late

let latencies o kind =
  List.filter_map
    (fun s -> if s.kind = kind && s.ok then Some (s.done_ -. s.due) else None)
    o.samples

(* Submit (as due) to report, less the time stolen from the VM meanwhile. *)
let submit_report o =
  List.map
    (fun x ->
      x.reported.Pb.wall -. x.submit_due -. Pb.stolen x.submitted x.reported)
    o.campaigns

(* Planted-truth quality pooled over every reported campaign. *)
let quality o =
  Derive.pooled
    (List.filter_map
       (fun x ->
         Option.map
           (fun (e : Store.entry) ->
             Derive.confusion
               ~truth:
                 (Because_scenario.Deployment.detectable_dampers
                    (Because_scenario.World.deployment (Spec.world x.spec)))
               e.Store.estimates)
           (Store.find (Svc.store o.svc) ~id:x.cid))
       o.campaigns)

let counts o =
  let attempted = List.length o.samples in
  let failed = List.length (List.filter (fun s -> not s.ok) o.samples) in
  (attempted, failed)

let rhat_max o = List.fold_left (fun acc x -> Float.max acc x.rhat) neg_infinity o.campaigns

let untraced ~seed ~seconds =
  let o = run_loop ~seed ~seconds ~spans:(Spans.create ~enabled:false ~run:"") in
  check o;
  let attempted, failed = counts o in
  let results = submit_report o in
  let precision, recall = quality o in
  let tail, tail_pct = Pb.tail results in
  let reads = List.concat_map (fun d -> latencies o ("read." ^ d)) (Array.to_list read_paths) in
  let read_tail, read_pct = Pb.tail reads in
  { Pb.attempted;
    failed;
    metrics =
      [ ("setup_s", o.setup_s);
        ("peak_rss_mb", Pb.peak_rss_mb ());
        ("ok_ratio", float_of_int (attempted - failed) /. float_of_int attempted);
        ("result_p50_s", Pb.median results);
        ("precision", precision);
        ("recall", recall) ];
    details =
      [ Pb.detailf "campaigns" "%d" (List.length o.campaigns);
        Pb.detailf "requests" "%d" attempted;
        Pb.detailf "submit_report_tail_s" "%.3f (p%.0f)" tail tail_pct;
        Pb.detailf "rhat_max" "%.4f" (rhat_max o);
        Pb.detailf "read_p50_ms" "%.3f" (1e3 *. Pb.median reads);
        Pb.detailf "read_tail_ms" "%.3f (p%.1f)" (1e3 *. read_tail) read_pct ] }

let traced ~seed ~seconds ~spans =
  let off = Spans.create ~enabled:false ~run:"" in
  let reference = run_loop ~seed ~seconds ~spans:off in
  check reference;
  let o =
    Spans.with_ spans ~name:"serve.run" (fun () -> run_loop ~seed ~seconds ~spans)
  in
  check o;
  let snap = Tel.snapshot o.registry in
  Spans.add_program spans snap;
  let attempted, failed = counts o in
  let ms kind = 1e3 *. Pb.median (latencies o kind) in
  let reads =
    List.filter (fun s -> String.starts_with ~prefix:"read." s.kind && s.ok) o.samples
  in
  let entries = List.filter_map (fun x -> Store.find (Svc.store o.svc) ~id:x.cid) o.campaigns in
  let queue_waits = List.map (fun e -> e.Store.queue_wait_s) entries in
  let runs =
    List.map2 (fun r e -> r -. e.Store.queue_wait_s) (submit_report o) entries
  in
  let counter = Derive.counter snap in
  let prefixed prefix =
    List.fold_left
      (fun acc (name, v) -> if String.starts_with ~prefix name then acc + v else acc)
      0 snap.Because_telemetry.Snapshot.counters
  in
  let files, bytes = Pb.walk o.state in
  let span = Derive.span_s snap in
  let sim_s = span "campaign.sim" in
  let p50 o = Pb.median (submit_report o) in
  { Pb.attempted;
    failed;
    metrics =
      [ ("http.read_rtt_ms.status", ms "read.status");
        ("http.read_rtt_ms.matrix", ms "read.matrix");
        ("http.read_rtt_ms.estimates", ms "read.estimates");
        ("http.submit_rtt_ms", ms "submit");
        ("http.shed", counter "http.shed" +. counter "http.shed_renders");
        ( "http.bytes_per_read",
          Pb.sum (List.map (fun s -> float_of_int s.bytes) reads)
          /. float_of_int (List.length reads) );
        ( "loadgen.late_p99_ms",
          1e3 *. Pb.quantile (List.map (fun s -> s.sent -. s.due) o.samples) 0.99 );
        ("service.queue_wait_s", Pb.median queue_waits);
        ("service.run_s", Pb.median runs);
        ("service.retries", counter "service.retries");
        ("faults.realized", float_of_int (prefixed "faults.realized."));
        ("recover.bytes_written", float_of_int bytes);
        ("recover.files", float_of_int files);
        ("sim.run_s", sim_s);
        ("sim.events", counter "sim.events");
        ("sim.deliveries", counter "sim.deliveries");
        ("sim.events_per_s", counter "sim.events" /. sim_s);
        ("collector.dump_s", span "campaign.collect");
        ("labeling.label_s", span "campaign.label");
        ("heuristics.evaluate_s", span "campaign.heuristics");
        ("core.infer_s", span "campaign.infer");
        ("core.categorize_s", span "campaign.categorize");
        ("mcmc.sweeps", counter "mcmc.sweeps");
        ("mcmc.rhat_max", rhat_max o);
        ( "telemetry.overhead_pct",
          (p50 o -. p50 reference) /. p50 reference *. 100.0 ) ];
    details =
      [ Pb.detailf "campaigns" "%d" (List.length o.campaigns);
        Pb.detailf "untraced_submit_report_p50_s" "%.4f" (p50 reference);
        Pb.detailf "traced_submit_report_p50_s" "%.4f" (p50 o) ] }

(* The typed job model of the vmsh service: everything a tenant can ask
   the dispatcher to run, plus the durable per-job result shape. A job
   is self-describing — (kind, seed) fully determines the simulated
   machine it runs on — so a failing job's flight recording can be
   replayed from its wire form alone. *)

type kind = Fleet.Session.Job_kind.t =
  | Attach  (** boot a guest, attach the overlay, prove the console *)
  | Attach_detach
      (** attach then detach, with the snapshot oracle asserting the
          guest is byte-identical afterwards *)
  | Sweep_cell of { cls : string; k : int }
      (** one crash-matrix cell: fault class armed at rate 1 with
          [abort-at-yield k]; must roll back cleanly *)
  | Fuzz_seed of { boost : string }
      (** a fuzz schedule: every class armed, [boost] at rate 1;
          completion or clean round-trippable failure both count *)
  | Hostile_attach of { cls : string }
      (** an attach against an adversarial guest of the named
          {!Hostile.cls}: the engine races the attach from inside the
          VM; completion or a clean round-trippable abort (with the
          guest rolled back and nothing leaked) both count *)

type t = {
  id : int;  (** dense, assigned by the arrival driver *)
  tenant : string;
  kind : kind;
  seed : int;  (** seeds the job's private simulated machine *)
  priority : int;  (** higher dequeues first within a tenant *)
  deadline_ns : float;  (** relative to submit; [0.] = no deadline *)
}

(* Terminal state of a job. [Shed] jobs never reached a worker;
   [Expired] jobs were admitted but their deadline passed before a
   worker was free (rendered through Vmsh_error.Deadline_exceeded so
   the error round-trips like every other attach failure). *)
type status =
  | Completed
  | Failed of string  (** rendered {!Vmsh.Vmsh_error.t} or oracle text *)
  | Shed of string  (** admission reason: ["rate"] / ["queue-full"] / ["evicted"] *)
  | Expired of int  (** virtual ns past the deadline at dispatch time *)

let kind_to_string = Fleet.Session.Job_kind.to_string

(* Only class names the fault and hostile engines know parse, so the
   frontend refuses a bogus class as a bad request. *)
let kind_of_string = Fleet.Session.Job_kind.of_string

(* A job's terminal status, projected from its session's verdict. *)
let status_of_outcome kind (o : Fleet.Session.Outcome.t) =
  match o.Fleet.Session.Outcome.verdict with
  | Faults.Abort.Survived -> Completed
  | Faults.Abort.Clean_abort m ->
      (* a clean, rolled-back abort is a success for the kinds that
         perturb the attach on purpose *)
      if kind = Attach || kind = Attach_detach then Failed m else Completed
  | Faults.Abort.Bug m -> Failed m

(* A status's label and detail (an expiry in the round-trippable
   taxonomy form, checked by the tests). *)
let status_fields = function
  | Completed -> ("completed", None)
  | Failed e -> ("failed", Some e)
  | Shed reason -> ("shed", Some reason)
  | Expired late_ns ->
      ( "expired",
        Some
          (Vmsh.Vmsh_error.to_string
             (Vmsh.Vmsh_error.Context
                ("job deadline", Vmsh.Vmsh_error.Deadline_exceeded late_ns))) )

let status_to_string s =
  match status_fields s with l, None -> l | l, Some d -> l ^ ": " ^ d

(* --- wire codec -----------------------------------------------------
   Jobs travel to the frontend over the lib/net workload protocol as an
   HTTP-ish POST carried in a UDP datagram:

     POST /jobs HTTP/1.0\r\n
     X-Tenant: t0\r\n
     X-Job: id=12 kind=attach seed=991 prio=2 deadline=1000000\r\n
     \r\n

   The codec is total in both directions and is its own regression
   test: [of_wire (to_wire j) = Ok j]. *)

let to_wire j =
  Printf.sprintf
    "POST /jobs HTTP/1.0\r\nX-Tenant: %s\r\nX-Job: id=%d kind=%s seed=%d \
     prio=%d deadline=%.0f\r\n\r\n"
    j.tenant j.id (kind_to_string j.kind) j.seed j.priority j.deadline_ns

let of_wire s =
  let fail what = Error (Printf.sprintf "bad job request: %s" what) in
  let lines = String.split_on_char '\n' s in
  let lines = List.map (fun l -> String.trim l) lines in
  match lines with
  | req :: rest when req = "POST /jobs HTTP/1.0" -> (
      let header name =
        let prefix = name ^ ": " in
        List.find_map
          (fun l ->
            if String.length l > String.length prefix
               && String.sub l 0 (String.length prefix) = prefix
            then
              Some
                (String.sub l (String.length prefix)
                   (String.length l - String.length prefix))
            else None)
          rest
      in
      match (header "X-Tenant", header "X-Job") with
      | None, _ -> fail "missing X-Tenant"
      | _, None -> fail "missing X-Job"
      | Some tenant, Some jobspec -> (
          let fields =
            List.filter_map
              (fun kv ->
                match String.index_opt kv '=' with
                | Some i ->
                    Some
                      ( String.sub kv 0 i,
                        String.sub kv (i + 1) (String.length kv - i - 1) )
                | None -> None)
              (String.split_on_char ' ' jobspec)
          in
          let int_field name =
            Option.bind (List.assoc_opt name fields) int_of_string_opt
          in
          let float_field name =
            Option.bind (List.assoc_opt name fields) float_of_string_opt
          in
          let kind =
            Option.bind (List.assoc_opt "kind" fields) kind_of_string
          in
          match
            (int_field "id", kind, int_field "seed", int_field "prio",
             float_field "deadline")
          with
          | Some id, Some kind, Some seed, Some priority, Some deadline_ns ->
              Ok { id; tenant; kind; seed; priority; deadline_ns }
          | _ -> fail ("unparseable X-Job: " ^ jobspec)))
  | req :: _ -> fail ("unexpected request line: " ^ req)
  | [] -> fail "empty request"

(* Frontend replies, in kind. *)
let accepted_wire = "HTTP/1.0 202 Accepted\r\n\r\n"

let rejected_wire reason =
  Printf.sprintf "HTTP/1.0 429 Too Many Requests\r\nX-Reason: %s\r\n\r\n"
    reason

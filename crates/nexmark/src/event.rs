//! NEXMark events: people, auctions and bids.
//!
//! The NEXMark benchmark models an online auction site. Three kinds of events
//! arrive on one stream: new people registering, new auctions being opened by a
//! seller, and bids placed on auctions. The queries (Q1–Q8) are standing
//! relational queries over this stream.

use megaphone::Codec;

/// A person registering with the auction site.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Person {
    /// Unique person identifier.
    pub id: u64,
    /// Display name.
    pub name: String,
    /// City of residence.
    pub city: String,
    /// State (two-letter code) of residence.
    pub state: String,
    /// Event time in milliseconds.
    pub date_time: u64,
}

/// An auction opened by a seller.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Auction {
    /// Unique auction identifier.
    pub id: u64,
    /// The person selling the item.
    pub seller: u64,
    /// The item's category.
    pub category: u64,
    /// The opening bid in cents.
    pub initial_bid: u64,
    /// The reserve price in cents.
    pub reserve: u64,
    /// Event time in milliseconds.
    pub date_time: u64,
    /// The time at which the auction closes, in milliseconds.
    pub expires: u64,
}

/// A bid on an auction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Bid {
    /// The auction being bid on.
    pub auction: u64,
    /// The bidding person.
    pub bidder: u64,
    /// The bid price in cents.
    pub price: u64,
    /// Event time in milliseconds.
    pub date_time: u64,
}

/// Any NEXMark event.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Event {
    /// A new person.
    Person(Person),
    /// A new auction.
    Auction(Auction),
    /// A new bid.
    Bid(Bid),
}

impl Event {
    /// The event time in milliseconds.
    pub fn time(&self) -> u64 {
        match self {
            Event::Person(person) => person.date_time,
            Event::Auction(auction) => auction.date_time,
            Event::Bid(bid) => bid.date_time,
        }
    }

    /// The contained person, if any.
    pub fn person(self) -> Option<Person> {
        match self {
            Event::Person(person) => Some(person),
            _ => None,
        }
    }

    /// The contained auction, if any.
    pub fn auction(self) -> Option<Auction> {
        match self {
            Event::Auction(auction) => Some(auction),
            _ => None,
        }
    }

    /// The contained bid, if any.
    pub fn bid(self) -> Option<Bid> {
        match self {
            Event::Bid(bid) => Some(bid),
            _ => None,
        }
    }
}

impl Codec for Person {
    fn encode(&self, bytes: &mut Vec<u8>) {
        self.id.encode(bytes);
        self.name.encode(bytes);
        self.city.encode(bytes);
        self.state.encode(bytes);
        self.date_time.encode(bytes);
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        Person {
            id: u64::decode(bytes),
            name: String::decode(bytes),
            city: String::decode(bytes),
            state: String::decode(bytes),
            date_time: u64::decode(bytes),
        }
    }
}

impl Codec for Auction {
    fn encode(&self, bytes: &mut Vec<u8>) {
        self.id.encode(bytes);
        self.seller.encode(bytes);
        self.category.encode(bytes);
        self.initial_bid.encode(bytes);
        self.reserve.encode(bytes);
        self.date_time.encode(bytes);
        self.expires.encode(bytes);
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        Auction {
            id: u64::decode(bytes),
            seller: u64::decode(bytes),
            category: u64::decode(bytes),
            initial_bid: u64::decode(bytes),
            reserve: u64::decode(bytes),
            date_time: u64::decode(bytes),
            expires: u64::decode(bytes),
        }
    }
}

impl Codec for Bid {
    fn encode(&self, bytes: &mut Vec<u8>) {
        self.auction.encode(bytes);
        self.bidder.encode(bytes);
        self.price.encode(bytes);
        self.date_time.encode(bytes);
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        Bid {
            auction: u64::decode(bytes),
            bidder: u64::decode(bytes),
            price: u64::decode(bytes),
            date_time: u64::decode(bytes),
        }
    }
}

impl Codec for Event {
    fn encode(&self, bytes: &mut Vec<u8>) {
        match self {
            Event::Person(person) => {
                0u8.encode(bytes);
                person.encode(bytes);
            }
            Event::Auction(auction) => {
                1u8.encode(bytes);
                auction.encode(bytes);
            }
            Event::Bid(bid) => {
                2u8.encode(bytes);
                bid.encode(bytes);
            }
        }
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        match u8::decode(bytes) {
            0 => Event::Person(Person::decode(bytes)),
            1 => Event::Auction(Auction::decode(bytes)),
            2 => Event::Bid(Bid::decode(bytes)),
            tag => panic!("corrupt Event: tag byte {tag} is none of 0 (Person), 1 (Auction), 2 (Bid)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_roundtrip_through_codec() {
        let person = Person {
            id: 1,
            name: "alice".into(),
            city: "zurich".into(),
            state: "OR".into(),
            date_time: 7,
        };
        let auction = Auction {
            id: 2,
            seller: 1,
            category: 10,
            initial_bid: 100,
            reserve: 200,
            date_time: 8,
            expires: 90,
        };
        let bid = Bid { auction: 2, bidder: 1, price: 150, date_time: 9 };
        for event in [Event::Person(person), Event::Auction(auction), Event::Bid(bid)] {
            let bytes = event.encode_to_vec();
            assert_eq!(Event::decode_from_slice(&bytes), event);
        }
    }

    #[test]
    #[should_panic(expected = "corrupt Event: tag byte 3")]
    fn event_rejects_a_tag_it_never_writes() {
        let bid = Bid { auction: 2, bidder: 1, price: 150, date_time: 9 };
        let mut bytes = Event::Bid(bid).encode_to_vec();
        bytes[0] = 3;
        Event::decode_from_slice(&bytes);
    }

    #[test]
    fn event_accessors() {
        let bid = Bid { auction: 2, bidder: 1, price: 150, date_time: 9 };
        let event = Event::Bid(bid);
        assert_eq!(event.time(), 9);
        assert_eq!(event.clone().bid(), Some(bid));
        assert_eq!(event.person(), None);
    }
}
